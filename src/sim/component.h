// Base class for everything that advances with the NIC clock: engines,
// RMT stages, traffic generators, and the NoC mesh, which ticks its own
// routers and NIs (noc/mesh.h).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/units.h"
#include "telemetry/trace.h"

namespace panic {

namespace telemetry {
class Telemetry;
}  // namespace telemetry

class Simulator;

/// A clocked hardware block.  `tick()` is called once per simulated cycle;
/// a component reads inputs that became visible in earlier cycles and
/// produces outputs that become visible in later cycles (queues and links
/// carry ready-cycle timestamps, so ordering between components within one
/// cycle does not matter).
///
/// Activity contract (the quiescence/wake protocol): after each tick the
/// simulator asks `next_wake(now)` for the next cycle at which this
/// component must tick again *absent external input*:
///
///   * `now + 1`   — stay active (the default: dense, every-cycle ticking);
///   * a later cycle — sleep with a deadline (e.g. an engine mid-service
///     sleeps until the service completes, a traffic source until its next
///     injection time);
///   * `kNeverWake` — fully quiescent: tick again only when woken.
///
/// Anything that hands a quiescent component work — an NI delivering a
/// message to its engine, a queue enqueue, a DMA completion, a scheduled
/// injection — must wake it through `request_wake`.  A correct
/// implementation is therefore conservative: when in doubt, return
/// `now + 1`; a tick that finds nothing to do must be an observable no-op,
/// so spurious wake-ups are always safe, while a missed wake-up stalls the
/// component.  In strict-tick mode the contract is ignored and every
/// component ticks every cycle.
class Component {
 public:
  /// Sentinel for "quiescent until woken".
  static constexpr Cycle kNeverWake = std::numeric_limits<Cycle>::max();

  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }

  /// Advance one clock cycle.  `now` is the cycle being executed.
  virtual void tick(Cycle now) = 0;

  /// Next cycle at which tick() must run again absent external wake-ups.
  /// Consulted by the simulator immediately after tick(now) returns; the
  /// component inspects its own post-tick state.  See the class comment.
  virtual Cycle next_wake(Cycle now) const { return now + 1; }

  /// Requests that this component be ticked at cycle `at` (clamped into
  /// the simulator's present).  Safe to call from anywhere — other
  /// components, event callbacks, workload drivers, tests.  A no-op when
  /// the component is not registered with a simulator (manually ticked
  /// unit tests) or the simulator runs in strict-tick mode.
  void request_wake(Cycle at);

  /// Called once by Simulator::add.  Overrides publish this component's
  /// counters/histograms into `t.metrics()` (see DESIGN.md §Telemetry for
  /// the naming scheme) and call the base implementation first: it
  /// interns the name and binds the tracer so the `trace()` helper works.
  /// (noc::Mesh, which traces nothing itself, skips it: its members intern
  /// their own names.)  Components that are never registered with a
  /// simulator (manually ticked unit tests) simply publish nothing.
  virtual void register_telemetry(telemetry::Telemetry& t);

 protected:
  /// The telemetry sink, once registered (nullptr before).
  telemetry::Telemetry* telemetry() const { return telemetry_; }
  telemetry::MessageTracer* tracer() const { return tracer_; }
  /// This component's interned name in the tracer (TraceEvent::where).
  std::uint16_t trace_tag() const { return trace_tag_; }

  /// Records a per-message trace event attributed to this component; a
  /// cheap no-op when tracing is off or the component is unregistered.
  void trace(telemetry::TraceEventKind kind, Cycle cycle, MessageId msg,
             std::uint32_t arg = 0) const {
    if (tracer_ != nullptr) tracer_->record(kind, cycle, msg, trace_tag_, arg);
  }

 private:
  friend class Simulator;

  std::string name_;
  Simulator* sim_ = nullptr;
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::MessageTracer* tracer_ = nullptr;
  std::uint16_t trace_tag_ = 0;
  std::uint32_t slot_ = 0;  ///< registration index within the simulator
};

}  // namespace panic
