// What every PANIC tile does once it has picked a message's next hop
// (§3.1, Figure 3): steer around a dead next hop, apply degraded-mode
// admission when no live equivalent exists, and stage the message toward
// the tile's network interface.  Offload engines (engines/engine.h) and
// RMT engines (core/rmt_engine.h) both leave through one TileEgress, so
// the two kinds of tile treat a dead engine identically.
#pragma once

#include <cstdint>
#include <deque>

#include "common/ids.h"
#include "common/units.h"
#include "fault/steering.h"
#include "net/message.h"
#include "noc/network_interface.h"
#include "sim/timed_queue.h"
#include "telemetry/trace.h"

namespace panic::engines {

/// Degraded-mode admission when steering resolution fails (a kill left the
/// equivalence group empty): drop immediately, or park up to `depth`
/// messages until a revive/spare re-opens a route (overflow is shed).
struct NoRouteConfig {
  fault::NoRoutePolicy policy = fault::NoRoutePolicy::kDrop;
  std::size_t depth = 64;
};

class TileEgress {
 public:
  /// The cells the owning tile publishes under its own metric names.
  struct Counters {
    std::uint64_t resteered = 0;  ///< sends redirected around dead tiles
    std::uint64_t faulted = 0;    ///< messages dropped with fate kFaulted
    std::uint64_t parked = 0;     ///< park events (incl. re-parks)
    std::uint64_t shed = 0;       ///< park overflows (fate kShed)
  };

  explicit TileEgress(const NoRouteConfig& no_route) : no_route_(no_route) {}

  void set_steering(const fault::SteeringDirectory* steering) {
    steering_ = steering;
  }
  /// Attributes this egress's kFault trace events to the owning tile.
  void bind_tracer(telemetry::MessageTracer* tracer, std::uint16_t where) {
    tracer_ = tracer;
    trace_where_ = where;
  }

  /// Checks `next` against the steering directory.  Returns true when the
  /// caller should send `msg` to `next`: the hop is live, or it was dead
  /// and `next` (and the chain hop naming it) now names a live
  /// equivalent.  Returns false when the egress took `msg`: parked, shed
  /// or dropped as faulted.  With no dead engine this is one branch.
  bool steer(MessagePtr& msg, EngineId& next, Cycle now) {
    if (steering_ == nullptr || steering_->empty() ||
        !steering_->is_dead(next)) {
      return true;
    }
    return steer_around_dead(msg, next, now);
  }

  /// Queues `msg` for injection toward `dst`.  Unbounded: owners that must
  /// bound it check staged() first, and the high watermark is published as
  /// growth telemetry.
  void stage(MessagePtr msg, EngineId dst, Cycle now) {
    out_.try_push(Outbound{std::move(msg), dst}, now);
  }

  /// Injects staged messages while the NI has room.
  void drain(noc::NetworkInterface& ni, Cycle now) {
    while (ni.can_inject()) {
      auto ob = out_.try_pop(now);
      if (!ob.has_value()) break;
      ni.inject(std::move(ob->msg), ob->dst, now);
    }
  }

  /// Hands every parked message back to `reroute` (in parking order) once
  /// the steering generation has moved since the last park; a message
  /// whose route is still closed parks again.
  template <typename Reroute>
  void retry_parked(Reroute&& reroute) {
    if (parked_.empty() || steering_ == nullptr) return;
    if (steering_->generation() == parked_gen_) return;
    parked_gen_ = steering_->generation();
    // The swap keeps the loop finite when a message re-parks.
    std::deque<MessagePtr> retry;
    retry.swap(parked_);
    for (MessagePtr& msg : retry) reroute(std::move(msg));
  }

  /// Kills `msg` with fate kFaulted, traced with `arg` and counted.
  void fault_drop(MessagePtr msg, Cycle now, std::uint32_t arg);

  /// Fault-drops every parked, then every staged, message.
  void discard_all(Cycle now);

  /// True when nothing is parked or staged.
  bool empty() const { return out_.empty() && parked_.empty(); }
  std::size_t staged() const { return out_.size(); }

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  std::size_t parked_watermark() const { return parked_watermark_; }
  std::size_t staging_high_watermark() const { return out_.high_watermark(); }

 private:
  struct Outbound {
    MessagePtr msg;
    EngineId dst;
  };

  bool steer_around_dead(MessagePtr& msg, EngineId& next, Cycle now);
  void trace_fault(Cycle now, const Message& msg, std::uint32_t arg) const {
    if (tracer_ != nullptr) {
      tracer_->record(telemetry::TraceEventKind::kFault, now, msg.id,
                      trace_where_, arg);
    }
  }

  NoRouteConfig no_route_;
  const fault::SteeringDirectory* steering_ = nullptr;
  telemetry::MessageTracer* tracer_ = nullptr;
  std::uint16_t trace_where_ = 0;

  TimedQueue<Outbound> out_;

  /// Degraded-mode admission (policy kBackpressure): messages whose next
  /// hop has no live equivalent wait here, bounded by `no_route_.depth`.
  std::deque<MessagePtr> parked_;
  std::uint64_t parked_gen_ = 0;  ///< steering generation at last park
  std::size_t parked_watermark_ = 0;

  Counters counters_;
};

}  // namespace panic::engines
