// FaultInjector: arms a FaultPlan against a live simulation.
//
// The injector owns the recovery state (the SteeringDirectory the RMT
// pipeline and engine lookups consult) and the application of each fault:
// at arm() time every spec is resolved to its target component and a
// `Simulator::schedule_at` event is queued for its injection cycle.
// Scheduled events fire identically in kStrictTick and kEventDriven, and
// every random draw a fault makes comes from a per-fault stream derived
// from the plan seed, so a (plan, seed) pair produces bit-identical runs
// in both kernel modes.
//
// Injection telemetry lands under "fault.*" (fault.injected,
// fault.injected.<kind>, fault.engines_dead); the targets themselves
// publish the per-message consequences (engine.<name>.faulted_discards,
// noc.router.<t>.flits_delayed, ...) and trace kFault events.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "fault/fault_plan.h"
#include "fault/steering.h"

namespace panic {
class Simulator;
namespace engines {
class Engine;
}
namespace noc {
class Router;
}
}  // namespace panic

namespace panic::fault {

class RecoveryTracker;

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {});

  const FaultPlan& plan() const { return plan_; }

  /// The steering directory recovery consults.  Populated by engine-death
  /// applications; equivalence groups are declared by the NIC wiring.
  SteeringDirectory& steering() { return steering_; }
  const SteeringDirectory& steering() const { return steering_; }

  void add_equivalence_group(std::vector<EngineId> group) {
    steering_.add_equivalence_group(std::move(group));
  }

  /// Target registry — the NIC wiring introduces every fault-capable
  /// component.  Engines are keyed by name, routers by mesh tile id.
  void register_engine(engines::Engine* engine);
  void register_router(int tile, noc::Router* router);

  /// Optional recovery-time telemetry sink: kills open incidents,
  /// revives/spares close them (fault/recovery.h).  Must outlive arm()'d
  /// events.
  void set_recovery_tracker(RecoveryTracker* tracker) { recovery_ = tracker; }

  /// Resolves every spec and schedules its application.  Returns false,
  /// arming nothing, if any spec names an unknown engine, fallback, spare
  /// target or router tile; `error` (when non-null) then names the first
  /// one.  Call after every target is registered and before the first
  /// run.
  bool arm(Simulator& sim, std::string* error = nullptr);

  /// Faults applied so far (fires at their scheduled cycles).
  std::uint64_t injected() const { return injected_; }

 private:
  /// Why `spec`'s target does not resolve ("unknown engine 'x'"), or
  /// empty when it does.
  std::string unresolved(const FaultSpec& spec) const;
  void apply(Simulator& sim, const FaultSpec& spec, std::uint64_t stream_seed);

  FaultPlan plan_;
  SteeringDirectory steering_;
  std::unordered_map<std::string, engines::Engine*> engines_;
  std::unordered_map<int, noc::Router*> routers_;
  RecoveryTracker* recovery_ = nullptr;

  std::uint64_t injected_ = 0;
  std::uint64_t by_kind_[kFaultKindCount] = {};
};

}  // namespace panic::fault
