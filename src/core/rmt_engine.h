// RMT engine tile (Figure 3b): one pipelined match+action unit on the
// mesh.  Unlike offload engines (single-server with a service time), an
// RMT engine is fully pipelined: it issues one message per cycle and each
// message completes `pipeline latency` cycles later — this is what makes
// the F·P packets-per-second law of §4.2 hold.
//
// Several RMT engines instantiated with the same program form the
// "heavyweight RMT pipeline"; Ethernet ports and offload engines are
// assigned one of them as their default route, which load-spreads traffic
// across the parallel pipelines.
#pragma once

#include <memory>
#include <utility>

#include "engines/lookup_table.h"
#include "engines/sched_queue.h"
#include "engines/tile_egress.h"
#include "fault/steering.h"
#include "noc/network_interface.h"
#include "rmt/flow_cache.h"
#include "rmt/pipeline.h"
#include "sim/component.h"
#include "sim/timed_queue.h"

namespace panic::core {

struct RmtEngineConfig {
  std::size_t input_queue = 256;  ///< messages buffered before the parser
  engines::SchedSpec sched_policy = engines::SchedKind::kSlack;
  /// Flow-signature resolution cache (rmt/flow_cache.h).  Host wall-clock
  /// optimization only — simulated behaviour is bit-identical with the
  /// cache off.  Default on.
  rmt::FlowCacheConfig cache;
  engines::NoRouteConfig no_route;  ///< degraded-mode admission
};

class RmtEngine : public Component {
 public:
  RmtEngine(std::string name, noc::NetworkInterface* ni,
            std::shared_ptr<const rmt::RmtProgram> program,
            const RmtEngineConfig& config);

  EngineId id() const { return ni_->tile(); }
  rmt::Pipeline& pipeline() { return pipeline_; }
  engines::LocalLookupTable& lookup_table() { return lookup_; }

  void tick(Cycle now) override;

  /// Quiescence: sleeps until the earliest in-flight message exits the
  /// pipeline once the input queue and output staging are drained; fully
  /// quiescent when all three are empty (arrivals wake it via the NI).
  Cycle next_wake(Cycle now) const override;

  std::uint64_t messages_processed() const { return processed_; }
  std::uint64_t messages_dropped() const { return dropped_; }

  /// Completion routing consults `steering` (when set): chains headed to a
  /// dead engine are rewritten toward a live equivalent, or take the
  /// no-route policy when none exists — recovery happens here, at the
  /// pipeline that computes chains (§3.1.2).
  void set_steering(const fault::SteeringDirectory* steering) {
    egress_.set_steering(steering);
    // The cache gates cached chains on the directory's generation: any
    // later re-steer flushes memoized resolutions.
    if (rmt::FlowCache* cache = pipeline_.flow_cache()) {
      cache->set_steering(steering);
    }
  }
  std::uint64_t resteered() const { return egress_.counters().resteered; }

  // --- Watchdog probes (fault/watchdog.h). ---
  std::uint64_t progress() const { return processed_ + dropped_; }
  bool has_pending_work() const {
    return !queue_.empty() || !in_flight_.empty() || !egress_.empty();
  }

  /// Publishes `rmt.<name>.*` metrics and attaches the message tracer.
  void register_telemetry(telemetry::Telemetry& t) override;

 private:
  /// Routes a pipeline completion onward: chain hop / lookup route, then
  /// the egress (steering, degraded-mode admission, staging).
  void route_completion(MessagePtr msg, Cycle now);

  noc::NetworkInterface* ni_;
  rmt::Pipeline pipeline_;
  engines::SchedulerQueue queue_;
  engines::LocalLookupTable lookup_;

  /// Messages inside the pipeline; ready = issue cycle + latency.
  TimedQueue<MessagePtr> in_flight_;
  /// Steering, degraded-mode admission and output staging toward the NI
  /// (unbounded: the pipeline never drops on egress).
  engines::TileEgress egress_;

  std::uint64_t processed_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace panic::core
