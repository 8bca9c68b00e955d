// The oracle suite: every property a correct PANIC build must satisfy on
// every scenario, checked by running the scenario under both kernel modes
// (dense and event-driven).
//
//   differential     — kStrictTick and kEventDriven are cycle-identical:
//                      equal scalar stats and an equal MetricsSnapshot
//                      (minus kernel.* bookkeeping, which differs between
//                      modes / process histories by design).
//   conservation     — every message created in the run is delivered,
//                      dropped, consumed, faulted or still live; none
//                      destroyed fate-less (per mode).
//   lossless_noc     — no router ever accepted a flit without a free
//                      credit (Router::credit_violations == 0).
//   ordering         — no SchedulerQueue dequeue broke the (rank, seq)
//                      PIFO total order or diverged from an independent
//                      interpreted evaluation of the queue's rank program
//                      (the per-dequeue audit + shadow queue), and no
//                      tenant's frames left an Ethernet port out of
//                      creation order.  Sound for any per-tenant-monotone
//                      rank policy — all built-ins, and everything the
//                      rank-program generator emits.
//   ledger_telemetry — the conservation ledger and the telemetry counters
//                      agree on the delivered/dropped/faulted totals
//                      (each fate has exactly one legal counting site).
//   cache_differential — the RMT flow cache is semantically invisible:
//                      when the scenario runs cache-on, one extra
//                      event-kernel leg with the cache forced off must be
//                      bit-identical (minus the cache's own rmt.cache.*
//                      telemetry, which only exists on the cache-on side).
//   convergence      — on a *recoverable* plan (every kill later undone by
//                      a revive or spare, finite stalls, no credit leaks,
//                      finite workloads) the run converges before the
//                      budget expires: every message reaches a terminal
//                      fate (live == 0 — nothing parked forever), the
//                      ledger closes, and every kill's incident was
//                      closed.  The chaos generator only emits recoverable
//                      plans, so every chaos storm is held to this.
#pragma once

#include <string>
#include <vector>

#include "proptest/runner.h"
#include "scenario/scenario.h"

namespace panic::proptest {

struct Violation {
  std::string oracle;  ///< which oracle fired (names above)
  std::string detail;  ///< human-readable evidence
};

std::string to_string(const std::vector<Violation>& violations);

/// Runs `s` under both kernel modes and applies every oracle.  Empty
/// result == the scenario passes.  When non-null, `dense_out`/`event_out`
/// receive the runs (the CLI prints them on failure).
std::vector<Violation> check_scenario(const scenario::Scenario& s,
                                      RunResult* dense_out = nullptr,
                                      RunResult* event_out = nullptr);

/// The oracles that apply to a single run (conservation, lossless NoC,
/// ordering, ledger-vs-telemetry, convergence) — check_scenario applies
/// these to both modes and adds the differential comparison.
void check_single_run(const scenario::Scenario& s, const RunResult& r,
                      std::vector<Violation>* out);

/// True when the fault plan's capacity losses are all later undone —
/// every kill is followed by a revive of the same engine or a spare
/// activation covering it, stalls are finite, there are no credit leaks —
/// and the workloads are finite, so the run is required to converge (the
/// convergence oracle applies).
bool plan_recoverable(const scenario::Scenario& s);

}  // namespace panic::proptest
