// Builds and runs one Scenario under one kernel mode, with every probe the
// oracle suite needs armed: the SchedulerQueue dequeue audit, per-tenant
// egress-order tracking at each Ethernet port's TX sink, a conservation
// window over the run, and a full MetricsSnapshot captured before
// teardown (teardown destroys in-flight messages, which must not leak
// into the next run's conservation window).
#pragma once

#include <cstdint>

#include "fault/invariants.h"
#include "scenario/runner.h"

namespace panic::proptest {

struct RunResult {
  SimMode mode = SimMode::kEventDriven;

  /// The run's statistics and full snapshot, compared cycle-exactly
  /// between modes (apart from `ticks`, which differs by design).
  scenario::Outcome outcome;

  // --- Invariant probes. ---
  fault::ConservationChecker::Delta conservation;
  bool conserved = false;
  /// Router accepts without a free credit (sum over routers; lossless NoC
  /// => 0).
  std::uint64_t credit_violations = 0;
  /// SchedulerQueue dequeues that broke slack monotonicity / FIFO (sum
  /// over every engine and RMT input queue).
  std::uint64_t audit_violations = 0;
  /// Same-tenant frames leaving an Ethernet port out of creation order.
  std::uint64_t order_violations = 0;
};

/// Runs `s` under `mode`.  Precondition: s.feasible().
RunResult run_scenario(const scenario::Scenario& s, SimMode mode);

}  // namespace panic::proptest
