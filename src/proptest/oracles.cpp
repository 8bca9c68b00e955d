#include "proptest/oracles.h"

#include <sstream>

namespace panic::proptest {

using scenario::Scenario;

namespace {

void add(std::vector<Violation>* out, const std::string& oracle,
         const std::string& detail) {
  out->push_back(Violation{oracle, detail});
}

template <typename T>
void expect_eq(std::vector<Violation>* out, const char* oracle,
               const char* what, const char* na, T a, const char* nb, T b) {
  if (a != b) {
    std::ostringstream os;
    os << what << ": " << na << "=" << a << " " << nb << "=" << b;
    add(out, oracle, os.str());
  }
}

/// kernel.* counters legitimately differ between modes (tick counts,
/// fast-forward totals) or between runs in one process (the alloc gauges
/// read the process-wide MessagePool).
bool excluded_from_diff(const std::string& name) {
  return name.rfind("kernel.", 0) == 0;
}

/// rmt.cache.* is the flow cache's own bookkeeping — present only on the
/// cache-on side and the single namespace allowed to differ between
/// cache-on and cache-off runs.
bool excluded_from_cache_diff(const std::string& name) {
  return excluded_from_diff(name) || name.rfind("rmt.cache.", 0) == 0;
}

void check_differential(const scenario::Outcome& a, const scenario::Outcome& b,
                        const char* oracle, const char* na, const char* nb,
                        bool (*excluded)(const std::string&),
                        std::vector<Violation>* out) {
  expect_eq(out, oracle, "final_cycle", na, a.final_cycle, nb, b.final_cycle);
  expect_eq(out, oracle, "events", na, a.events, nb, b.events);
  expect_eq(out, oracle, "generated", na, a.generated, nb, b.generated);
  expect_eq(out, oracle, "delivered", na, a.delivered, nb, b.delivered);
  expect_eq(out, oracle, "tx_packets", na, a.tx_packets, nb, b.tx_packets);
  expect_eq(out, oracle, "flits_routed", na, a.flits_routed, nb,
            b.flits_routed);
  expect_eq(out, oracle, "rmt_passes", na, a.rmt_passes, nb, b.rmt_passes);
  const auto diff = a.snapshot.diff_names(b.snapshot, excluded);
  if (!diff.empty()) {
    std::string names;
    for (std::size_t i = 0; i < diff.size() && i < 8; ++i) {
      if (i) names += ", ";
      names += diff[i];
    }
    if (diff.size() > 8) names += ", ...";
    add(out, oracle,
        std::string(na) + " vs " + nb + ": snapshots differ on " +
            std::to_string(diff.size()) + " metric(s): " + names);
  }
}

void check_differential(const RunResult& a, const RunResult& b,
                        std::vector<Violation>* out) {
  check_differential(a.outcome, b.outcome, "differential", to_string(a.mode),
                     to_string(b.mode), excluded_from_diff, out);
}

}  // namespace

bool plan_recoverable(const Scenario& s) {
  const auto& faults = s.faults.faults();
  bool any_kill = false;
  for (const auto& f : faults) {
    switch (f.kind) {
      case fault::FaultKind::kCreditLeak:
        return false;  // leaked credits never come back
      case fault::FaultKind::kEngineStall:
        if (f.duration == 0) return false;  // a forever-stall never drains
        break;
      case fault::FaultKind::kEngineDeath: {
        any_kill = true;
        bool covered = false;
        for (const auto& g : faults) {
          if (g.at < f.at) continue;
          if (g.kind == fault::FaultKind::kEngineRevive &&
              g.engine == f.engine) {
            covered = true;
          }
          if (g.kind == fault::FaultKind::kSpareActivate &&
              g.spare_for == f.engine) {
            covered = true;
          }
        }
        if (!covered) return false;
        break;
      }
      default:
        break;
    }
  }
  if (!any_kill) return false;
  for (const auto& w : s.workloads) {
    if (w.max_frames == 0) return false;  // must be able to drain
  }
  return true;
}

void check_single_run(const Scenario& s, const RunResult& r,
                      std::vector<Violation>* out) {
  const std::string mode = to_string(r.mode);

  if (!r.conserved) {
    add(out, "conservation",
        mode + ": " + r.conservation.to_string());
  }
  if (r.credit_violations != 0) {
    add(out, "lossless_noc",
        mode + ": " + std::to_string(r.credit_violations) +
            " flit(s) accepted without a free credit");
  }
  if (r.audit_violations != 0) {
    add(out, "ordering",
        mode + ": " + std::to_string(r.audit_violations) +
            " scheduler dequeue(s) violated the (rank, seq) PIFO order "
            "or its rank program's reference evaluation");
  }
  if (r.order_violations != 0) {
    add(out, "ordering",
        mode + ": " + std::to_string(r.order_violations) +
            " frame(s) left an Ethernet port out of per-tenant order");
  }

  // Ledger vs telemetry: each fate has exactly one legal counting site —
  // delivered at the DMA host hand-off or an Ethernet TX, dropped at a
  // SchedulerQueue or the RMT pipeline's policy drop, faulted at an
  // engine discard or an RMT dead-route drop.
  const auto& snap = r.outcome.snapshot;
  const auto delivered_tel = static_cast<std::int64_t>(
      snap.counter("engine.dma.packets_to_host") +
      static_cast<std::uint64_t>(snap.sum("engine.eth", ".tx_packets")));
  double rmt_dropped = 0.0, rmt_faulted = 0.0, rmt_shed = 0.0;
  for (int i = 0; i < s.rmt_engines; ++i) {
    const std::string p = "rmt.rmt" + std::to_string(i) + ".";
    rmt_dropped += snap.value(p + "dropped");
    rmt_faulted += snap.value(p + "faulted_drops");
    rmt_shed += snap.value(p + "no_route_shed");
  }
  const auto dropped_tel = static_cast<std::int64_t>(
      snap.sum("", ".queue.dropped") + rmt_dropped);
  const auto faulted_tel = static_cast<std::int64_t>(
      snap.sum("engine.", ".faulted_discards") + rmt_faulted);
  const auto shed_tel = static_cast<std::int64_t>(
      snap.sum("engine.", ".no_route_shed") + rmt_shed);

  const auto mismatch = [&](const char* what, std::int64_t ledger,
                            std::int64_t telemetry) {
    if (ledger != telemetry) {
      std::ostringstream os;
      os << mode << ": " << what << " ledger=" << ledger
         << " telemetry=" << telemetry;
      add(out, "ledger_telemetry", os.str());
    }
  };
  mismatch("delivered", r.conservation.delivered, delivered_tel);
  mismatch("dropped", r.conservation.dropped, dropped_tel);
  mismatch("faulted", r.conservation.faulted, faulted_tel);
  mismatch("shed", r.conservation.shed, shed_tel);

  // Convergence: on a recoverable plan (every kill later undone, finite
  // workload), the run must return to steady state before the budget
  // expires — every message reaches a terminal fate (nothing parked or
  // queued forever), the ledger closes, and every kill-opened incident
  // was closed by its revive/spare.
  if (plan_recoverable(s)) {
    if (r.conservation.live != 0) {
      add(out, "convergence",
          mode + ": " + std::to_string(r.conservation.live) +
              " message(s) still live at end of a recoverable plan " +
              "(parked or queued work never drained after recovery)");
    }
    if (!r.conserved) {
      add(out, "convergence",
          mode + ": ledger failed to close after recovery: " +
              r.conservation.to_string());
    }
    if (snap.counter("fault.recovery.restored") <
        snap.counter("fault.injected.kill")) {
      add(out, "convergence",
          mode + ": only " +
              std::to_string(snap.counter("fault.recovery.restored")) +
              " restore(s) recorded for " +
              std::to_string(snap.counter("fault.injected.kill")) +
              " kill(s)");
    }
  }
}

std::vector<Violation> check_scenario(const Scenario& s, RunResult* dense_out,
                                      RunResult* event_out) {
  std::vector<Violation> violations;
  RunResult dense = run_scenario(s, SimMode::kStrictTick);
  RunResult event = run_scenario(s, SimMode::kEventDriven);
  check_differential(dense, event, &violations);
  check_single_run(s, dense, &violations);
  check_single_run(s, event, &violations);
  // Cache differential: the flow cache must be semantically invisible.
  // One extra event-kernel leg with the cache forced off, compared modulo
  // the cache's own rmt.cache.* telemetry.
  if (s.rmt_cache_enabled) {
    Scenario off = s;
    off.rmt_cache_enabled = false;
    RunResult event_off = run_scenario(off, SimMode::kEventDriven);
    check_differential(event.outcome, event_off.outcome, "cache_differential",
                       "cache-on", "cache-off", excluded_from_cache_diff,
                       &violations);
  }
  if (dense_out != nullptr) *dense_out = std::move(dense);
  if (event_out != nullptr) *event_out = std::move(event);
  return violations;
}

std::string to_string(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << "[" << v.oracle << "] " << v.detail << "\n";
  }
  return os.str();
}

}  // namespace panic::proptest
