// Base class for PANIC offload engines (Figure 3a).
//
// Every engine tile owns: a network interface onto the mesh router, the
// local scheduling queue (the logical scheduler's slice at this engine),
// and a lightweight lookup table (the logical switch's slice).  Derived
// classes implement the offload itself: a service-time model plus the
// actual data transformation.
//
// Per-cycle behaviour (tick):
//   1. drain arriving messages from the NI into the scheduling queue
//      (adopting the slack carried by the message's current chain hop);
//   2. if idle, start servicing the highest-priority queued message;
//   3. when the in-service message's time elapses, run `process()` and
//      forward the result(s) along the chain / lookup table;
//   4. drain the output staging buffer into the NI (backpressure-safe:
//      an engine whose NI is busy simply holds its output, it never drops
//      — drops only happen at the scheduler queue).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "engines/lookup_table.h"
#include "engines/sched_queue.h"
#include "engines/tile_egress.h"
#include "noc/network_interface.h"
#include "sim/component.h"

namespace panic::engines {

/// The offload engines' cost model: a fixed per-message setup plus a
/// per-byte cost, rounded up to whole cycles.  The §2.3 baselines charge
/// it too (baselines/nic_model.h).
inline Cycles offload_cycles(Cycles setup, double cycles_per_byte,
                             std::size_t bytes) {
  return setup + static_cast<Cycles>(std::ceil(static_cast<double>(bytes) *
                                               cycles_per_byte));
}

struct EngineConfig {
  SchedSpec sched_policy = SchedKind::kSlack;
  DropPolicy drop_policy = DropPolicy::kDropArrival;
  std::size_t queue_capacity = 64;   ///< scheduler queue depth (messages)
  NoRouteConfig no_route;            ///< degraded-mode admission
};

class Engine : public Component {
 public:
  Engine(std::string name, noc::NetworkInterface* ni,
         const EngineConfig& config);

  EngineId id() const { return ni_->tile(); }

  LocalLookupTable& lookup_table() { return lookup_; }
  SchedulerQueue& queue() { return queue_; }
  const SchedulerQueue& queue() const { return queue_; }

  void tick(Cycle now) final;

  /// Quiescence: an engine sleeps until its in-service message completes
  /// once its staging buffer is drained, and goes fully quiescent when the
  /// scheduler queue and in-flight work are empty.  Arrivals wake it via
  /// the NI client hook; emit() self-wakes.
  Cycle next_wake(Cycle now) const final;

  /// Publishes processed/busy_cycles/service histogram and the scheduler
  /// queue's counters under "engine.<name>.*".  Subclasses with extra
  /// counters override AND call this first.
  void register_telemetry(telemetry::Telemetry& t) override;

  // --- Fault-injection hooks (armed by fault::FaultInjector). ---

  /// Permanent death: discards queued, in-service and staged work with
  /// fate kFaulted, then discards every later arrival.  Recovery — routing
  /// new work around this tile — is the SteeringDirectory's job.
  void fault_kill(Cycle now);

  /// Freezes the engine (no draining, no service) until now + duration.
  void fault_stall(Cycle now, Cycles duration);

  /// Multiplies service times started before cycle `until` by `factor`.
  void fault_degrade(double factor, Cycle until);

  /// Flips one payload byte of each arriving message with probability
  /// `probability` until cycle `until`, drawing from a dedicated stream.
  void fault_corrupt(double probability, Cycle until, std::uint64_t seed);

  /// Recovery: a killed engine accepts work again from `now` on, with all
  /// fault modifiers (stall/degrade/corrupt) cleared — a warm restart.
  /// Steering-level reintegration (new chains routing back here) is the
  /// FaultInjector's job via SteeringDirectory::mark_alive.
  void fault_revive(Cycle now);

  bool faulted_dead() const { return dead_; }

  /// Outbound routing consults `steering` (when set) to re-steer messages
  /// headed to a dead engine; unresolvable hops take the no-route policy.
  void set_steering(const fault::SteeringDirectory* steering) {
    egress_.set_steering(steering);
  }

  // --- Watchdog probes (fault/watchdog.h). ---

  /// Monotone forward-progress counter: moves at every service start and
  /// completion, frozen exactly when the engine is wedged.
  std::uint64_t progress() const { return processed_ + busy_cycles_; }

  /// True when the engine holds undone work (a busy probe; an idle engine
  /// making no progress is healthy).
  bool has_pending_work() const {
    return in_service_ != nullptr || !queue_.empty() || !egress_.empty();
  }

 protected:
  /// Cycles this engine needs to process `msg` (>= 1).  Called once when
  /// service starts.
  virtual Cycles service_time(const Message& msg) const = 0;

  /// The offload's work.  May mutate `msg` in place.  Return true to
  /// forward `msg` onward (the common case); return false if the engine
  /// consumed it (e.g. it emitted replacement messages via `emit`, or the
  /// message terminates here).
  virtual bool process(Message& msg, Cycle now) = 0;

  /// Queues an additional outbound message to an explicit destination
  /// (DMA requests, generated replies, interrupts).  The message leaves
  /// through the same NI as forwarded traffic.
  void emit(MessagePtr msg, EngineId dst, Cycle now);

  /// Forwards `msg` along its chain: consumes the current hop (which
  /// names this engine), then sends to the next hop or the lookup-table
  /// route.  If no route exists the message terminates here.
  void forward_along_chain(MessagePtr msg, Cycle now);

  /// True if the output staging buffer has room for `n` more messages —
  /// engines that emit multiple messages per input should check before
  /// starting service.
  bool can_stage(std::size_t n = 1) const {
    return egress_.staged() + n <= kOutputStaging;
  }

  /// Root of this engine's metric names: "engine.<name>.".
  std::string metric_prefix() const { return "engine." + name() + "."; }

 private:
  void drain_arrivals(Cycle now);
  /// Dead-engine behaviour: destroy all held work + arrivals (fate
  /// kFaulted, counted in the egress's `faulted`).
  void discard_all(Cycle now);
  void maybe_corrupt(Message& msg, Cycle now);

  noc::NetworkInterface* ni_;
  EngineConfig config_;
  LocalLookupTable lookup_;
  SchedulerQueue queue_;

  // In-service message (at most one; engines are single-server).
  MessagePtr in_service_;
  Cycle service_done_ = 0;
  Cycles service_cycles_ = 0;  ///< duration of the current service window

  /// Completed messages that may await injection (see can_stage()).
  static constexpr std::size_t kOutputStaging = 16;

  /// Steering, degraded-mode admission and output staging.  Staging is
  /// logically bounded by `kOutputStaging` via can_stage(), but
  /// emit() is also an external entry point (a MAC's deliver_rx), so the
  /// queue itself is unbounded.
  TileEgress egress_;

  std::uint64_t processed_ = 0;
  std::uint64_t busy_cycles_ = 0;
  Histogram service_hist_;

  // --- Fault state (all inert until a FaultInjector arms a plan). ---
  bool dead_ = false;
  Cycle stalled_until_ = 0;
  double degrade_factor_ = 1.0;
  Cycle degrade_until_ = 0;
  double corrupt_p_ = 0.0;
  Cycle corrupt_until_ = 0;
  Rng corrupt_rng_;
  std::uint64_t corrupted_ = 0;  ///< payloads flipped on arrival
};

}  // namespace panic::engines
