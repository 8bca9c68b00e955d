#include "fault/fault_injector.h"

#include "common/log.h"
#include "common/rng.h"
#include "engines/engine.h"
#include "fault/recovery.h"
#include "noc/router.h"
#include "sim/simulator.h"

namespace panic::fault {

namespace {

/// Per-fault stream derivation: one splitmix64 step over the plan seed
/// mixed with the fault's index, so adding or reordering one fault never
/// perturbs another fault's draws... as long as its index is unchanged.
std::uint64_t fault_stream(std::uint64_t plan_seed, std::size_t index) {
  std::uint64_t z = plan_seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Cycle fault_until(const FaultSpec& spec) {
  return spec.duration == 0 ? Component::kNeverWake : spec.at + spec.duration;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultInjector::register_engine(engines::Engine* engine) {
  engines_[engine->name()] = engine;
}

void FaultInjector::register_router(int tile, noc::Router* router) {
  routers_[tile] = router;
}

std::string FaultInjector::unresolved(const FaultSpec& spec) const {
  if (spec.kind == FaultKind::kLinkFlaky ||
      spec.kind == FaultKind::kCreditLeak) {
    if (routers_.count(spec.router_tile) == 0) {
      return "unknown router tile " + std::to_string(spec.router_tile);
    }
    return {};
  }
  if (engines_.count(spec.engine) == 0) {
    return "unknown engine '" + spec.engine + "'";
  }
  if (!spec.fallback.empty() && engines_.count(spec.fallback) == 0) {
    return "unknown fallback engine '" + spec.fallback + "'";
  }
  if (spec.kind == FaultKind::kSpareActivate &&
      engines_.count(spec.spare_for) == 0) {
    return "unknown spare target '" + spec.spare_for + "'";
  }
  return {};
}

bool FaultInjector::arm(Simulator& sim, std::string* error) {
  for (const FaultSpec& spec : plan_.faults()) {
    if (std::string why = unresolved(spec); !why.empty()) {
      if (error != nullptr) *error = "plan names " + why;
      return false;
    }
  }

  auto& metrics = sim.telemetry().metrics();
  metrics.expose_counter("fault.injected", &injected_);
  static constexpr const char* kKindMetric[kFaultKindCount] = {
      "fault.injected.kill",    "fault.injected.stall",
      "fault.injected.degrade", "fault.injected.flaky",
      "fault.injected.corrupt", "fault.injected.leak",
      "fault.injected.revive",  "fault.injected.spare"};
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    metrics.expose_counter(kKindMetric[k], &by_kind_[k]);
  }
  metrics.expose_gauge("fault.engines_dead", [this] {
    return static_cast<double>(steering_.dead_count());
  });

  // The global --seed shifts the whole plan's streams (identity
  // under the default global seed, so plan seeds stand alone in tests).
  const std::uint64_t plan_seed = derive_seed(plan_.seed);
  for (std::size_t i = 0; i < plan_.faults().size(); ++i) {
    const FaultSpec& spec = plan_.faults()[i];
    const std::uint64_t stream = fault_stream(plan_seed, i);
    sim.schedule_at(spec.at, [this, &sim, spec, stream] {
      apply(sim, spec, stream);
    });
  }
  return true;
}

void FaultInjector::apply(Simulator& sim, const FaultSpec& spec,
                          std::uint64_t stream_seed) {
  ++injected_;
  ++by_kind_[static_cast<int>(spec.kind)];
  const Cycle now = sim.now();
  const Cycle until = fault_until(spec);

  switch (spec.kind) {
    case FaultKind::kEngineDeath: {
      engines::Engine* e = engines_.at(spec.engine);
      PANIC_INFO("fault", "cycle %llu: engine %s dies",
                 static_cast<unsigned long long>(now), spec.engine.c_str());
      if (!spec.fallback.empty()) {
        steering_.set_fallback(e->id(), engines_.at(spec.fallback)->id());
      }
      steering_.mark_dead(e->id());
      e->fault_kill(now);
      if (recovery_ != nullptr) recovery_->on_incident(spec.engine, now);
      break;
    }
    case FaultKind::kEngineStall: {
      engines::Engine* e = engines_.at(spec.engine);
      PANIC_INFO("fault", "cycle %llu: engine %s stalls for %llu cycles",
                 static_cast<unsigned long long>(now), spec.engine.c_str(),
                 static_cast<unsigned long long>(spec.duration));
      e->fault_stall(now, spec.duration);
      break;
    }
    case FaultKind::kEngineDegrade: {
      engines::Engine* e = engines_.at(spec.engine);
      PANIC_INFO("fault", "cycle %llu: engine %s degrades x%.2f",
                 static_cast<unsigned long long>(now), spec.engine.c_str(),
                 spec.factor);
      e->fault_degrade(spec.factor, until);
      break;
    }
    case FaultKind::kCorruption: {
      engines::Engine* e = engines_.at(spec.engine);
      PANIC_INFO("fault", "cycle %llu: engine %s corrupting p=%.3f",
                 static_cast<unsigned long long>(now), spec.engine.c_str(),
                 spec.probability);
      e->fault_corrupt(spec.probability, until, stream_seed);
      break;
    }
    case FaultKind::kLinkFlaky: {
      noc::Router* r = routers_.at(spec.router_tile);
      PANIC_INFO("fault", "cycle %llu: router %d link flaky p=%.3f +%llu",
                 static_cast<unsigned long long>(now), spec.router_tile,
                 spec.probability,
                 static_cast<unsigned long long>(spec.delay));
      r->fault_link(spec.port, spec.probability, spec.delay, until,
                    stream_seed);
      break;
    }
    case FaultKind::kCreditLeak: {
      noc::Router* r = routers_.at(spec.router_tile);
      PANIC_INFO("fault", "cycle %llu: router %d leaks %u credits",
                 static_cast<unsigned long long>(now), spec.router_tile,
                 spec.amount);
      r->fault_leak_credits(spec.port, spec.amount);
      break;
    }
    case FaultKind::kEngineRevive: {
      engines::Engine* e = engines_.at(spec.engine);
      PANIC_INFO("fault", "cycle %llu: engine %s revives (warmup %llu)",
                 static_cast<unsigned long long>(now), spec.engine.c_str(),
                 static_cast<unsigned long long>(spec.warmup));
      // The tile accepts work again immediately; the steering directory
      // keeps routing new chains away until the warmup window elapses
      // (cold caches / re-initialized state), then the generation bump
      // flushes routing caches and new chains steer back.  In-flight
      // re-steered messages drain on the old path either way.
      e->fault_revive(now);
      const std::string name = spec.engine;
      const EngineId id = e->id();
      auto rejoin = [this, name, id](Cycle at) {
        steering_.mark_alive(id);
        if (recovery_ != nullptr) recovery_->on_restored(name, at);
      };
      if (spec.warmup == 0) {
        rejoin(now);
      } else {
        const Cycle at = now + spec.warmup;
        sim.schedule_at(at, [rejoin, at] { rejoin(at); });
      }
      break;
    }
    case FaultKind::kSpareActivate: {
      engines::Engine* spare = engines_.at(spec.engine);
      engines::Engine* dead = engines_.at(spec.spare_for);
      PANIC_INFO("fault", "cycle %llu: engine %s activates as spare for %s",
                 static_cast<unsigned long long>(now), spec.engine.c_str(),
                 spec.spare_for.c_str());
      // The standby is revived if it was itself killed, marked alive so it
      // resolves, and installed as the explicit fallback for the dead
      // engine — fallbacks take precedence over group resolution, so
      // traffic addressed to the dead tile flows to the spare even when
      // the equivalence group is otherwise empty.
      if (spare->faulted_dead()) spare->fault_revive(now);
      steering_.mark_alive(spare->id());
      steering_.set_fallback(dead->id(), spare->id());
      if (recovery_ != nullptr) recovery_->on_restored(spec.spare_for, now);
      break;
    }
  }
}

}  // namespace panic::fault
