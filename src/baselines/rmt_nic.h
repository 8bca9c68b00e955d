// RMT-only NIC baseline — Figure 2c (FlexNIC style).
//
// A line-rate match+action pipeline parses and steers every packet, but
// each stage must finish in one cycle, so heavy offloads (IPSec,
// compression) cannot run on the NIC at all (§2.3.3).  Packets needing
// them are punted to host software, paying a software-processing penalty;
// everything else DMAs straight to its receive queue.  This baseline wins
// on simple steering and loses exactly where the paper says it must.
#pragma once

#include <utility>

#include "baselines/nic_model.h"
#include "common/fifo.h"
#include "sim/component.h"
#include "sim/simulator.h"

namespace panic::baselines {

struct RmtNicConfig {
  /// Host software cost for work the RMT pipeline cannot do (per packet);
  /// ~20 µs @ 500 MHz for a software IPSec stack.
  Cycles host_software_cycles = 10000;
  std::size_t queue_depth = 4096;
  engines::DmaConfig dma;  ///< the DMA engine (contention unused)
};

class RmtNic : public Component, public NicModel {
 public:
  /// `heavy_offloads` — offloads the pipeline cannot host; packets that
  /// need any of them pay the host-software penalty after DMA.
  RmtNic(std::string name, std::vector<OffloadSpec> heavy_offloads,
         const RmtNicConfig& config, Simulator& sim);

  /// Packets that paid the host-software penalty.  host_latency() is the
  /// latency to *usable* delivery: DMA completion plus, for punted
  /// packets, the host software processing time.
  std::uint64_t packets_punted() const { return punted_; }

  /// Publishes `baseline.<name>.*` metrics.
  void register_telemetry(telemetry::Telemetry& t) override;

  void tick(Cycle now) override;

  /// Quiescence: sleeps until the earliest pipeline exit, DMA completion,
  /// or host-software completion; quiescent when all queues are empty.
  Cycle next_wake(Cycle now) const override;

 protected:
  /// Refused when the pipeline and the DMA queue together hold
  /// `queue_depth` packets.
  void admit(MessagePtr msg, Cycle now) override;

 private:
  RmtNicConfig config_;
  std::vector<OffloadSpec> heavy_;

  /// Pipeline is full-rate: modelled as a pure latency element.
  Fifo<std::pair<MessagePtr, Cycle>> in_pipeline_;
  FifoServer dma_;
  /// Punted packets being processed by host software (one CPU core).
  FifoServer host_;
  std::uint64_t punted_ = 0;
};

}  // namespace panic::baselines
