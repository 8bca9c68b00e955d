// Manycore NIC baseline — Figure 2b (Tile-GX / LiquidIO style).
//
// Packets are load-balanced across embedded CPU cores; the core
// orchestrates all processing for its packet.  The defining cost is the
// per-packet orchestration overhead: §2.3.2 quotes Firestone et al. that
// core processing "adds a latency of 10 µs or more" (5000 cycles at
// 500 MHz, our default).  Offload work itself uses the same service scales
// as PANIC's engines; the orchestration overhead is what PANIC's logical
// switch removes.
#pragma once

#include "baselines/nic_model.h"
#include "sim/component.h"
#include "sim/simulator.h"

namespace panic::baselines {

struct ManycoreNicConfig {
  int num_cores = 8;
  /// Per-packet CPU orchestration overhead (10 µs @ 500 MHz by default).
  Cycles orchestration_cycles = 5000;
  engines::DmaConfig dma;  ///< the shared DMA engine (contention unused)
  /// kFlowHash pins a flow to a core (preserves order); kRoundRobin
  /// maximizes balance.
  enum class Dispatch { kRoundRobin, kFlowHash } dispatch = Dispatch::kRoundRobin;
};

class ManycoreNic : public Component, public NicModel {
 public:
  ManycoreNic(std::string name, std::vector<OffloadSpec> offloads,
              const ManycoreNicConfig& config, Simulator& sim);

  /// Publishes `baseline.<name>.*` metrics.
  void register_telemetry(telemetry::Telemetry& t) override;

  void tick(Cycle now) override;

  /// Quiescence: sleeps until the earliest core/DMA completion; fully
  /// quiescent when every queue and server is empty (deliver_rx wakes it).
  Cycle next_wake(Cycle now) const override;

 protected:
  /// Refused when the chosen core's queue is full.
  void admit(MessagePtr msg, Cycle now) override;

 private:
  ManycoreNicConfig config_;
  std::vector<OffloadSpec> offloads_;
  std::vector<FifoServer> cores_;
  int next_core_ = 0;
  FifoServer dma_;  ///< shared DMA engine behind the cores
};

}  // namespace panic::baselines
