// Pipeline ("bump-in-the-wire") NIC baseline — Figure 2a.
//
// Offloads sit in a fixed linear sequence on the wire; EVERY packet passes
// through EVERY offload position in FIFO order.  Packets that do not need
// an offload still occupy its queue slot: with bypass enabled they take
// only a passthrough cycle of service, but they cannot overtake (the wire
// preserves order), so a slow offload head-of-line blocks everything
// behind it — the §2.3.1 limitation measured by bench_hol_blocking.
#pragma once

#include "baselines/nic_model.h"
#include "sim/component.h"
#include "sim/simulator.h"

namespace panic::baselines {

struct PipelineNicConfig {
  std::size_t stage_queue_depth = 64;
  engines::DmaConfig dma;  ///< the final DMA stage (contention unused)
};

class PipelineNic : public Component, public NicModel {
 public:
  PipelineNic(std::string name, std::vector<OffloadSpec> offloads,
              const PipelineNicConfig& config, Simulator& sim);

  /// Publishes `baseline.<name>.*` metrics.
  void register_telemetry(telemetry::Telemetry& t) override;

  void tick(Cycle now) override;

  /// Quiescence: sleeps until the earliest stage completion (a stalled
  /// stage retries every cycle); quiescent when the wire is empty.
  Cycle next_wake(Cycle now) const override;

  /// Fault hook: the named stage stops serving (in-service and queued work
  /// freeze, back-pressure propagates to the wire).  A fixed-function
  /// pipeline has no detour around a dead block — the counterpart of a
  /// PANIC engine death for bench_fault_resilience.  Returns false if no
  /// stage has that name.
  bool wedge_stage(const std::string& stage_name);

 protected:
  /// Refused when the first stage's queue is full.
  void admit(MessagePtr msg, Cycle now) override;

 private:
  struct Stage {
    OffloadSpec spec;  ///< the DMA stage's spec only names it
    FifoServer server;
    bool wedged = false;
  };

  /// Moves `msg` into `stage`'s queue when it has room (nulling `msg`);
  /// leaves ownership with the caller when full.
  bool stage_push(std::size_t stage, MessagePtr& msg);

  PipelineNicConfig config_;
  std::vector<Stage> stages_;  // last stage is the DMA engine
};

}  // namespace panic::baselines
