// Greedy scenario shrinking.  Given a scenario the oracle suite rejects,
// repeatedly applies reductions — drop a workload, drop a fault, halve
// the trace length, halve the run budget, shrink the engine mix and the
// mesh, simplify knobs — keeping a candidate only when it still fails
// some oracle, until no reduction helps (a fixpoint) or the test budget
// is exhausted.  Each candidate costs two full runs (both kernel modes),
// so the pass order tries the biggest expected reductions first.
#pragma once

#include "proptest/oracles.h"
#include "scenario/scenario.h"

namespace panic::proptest {

struct MinimizeResult {
  scenario::Scenario scenario;        ///< the shrunk, still-failing scenario
  std::vector<Violation> violations;  ///< its violations (never empty)
  int tested = 0;                     ///< candidates evaluated
  int accepted = 0;                   ///< reductions that kept the failure
};

/// Precondition: check_scenario(failing) is non-empty.  `max_tests` bounds
/// the number of candidate evaluations (2 runs each).
MinimizeResult minimize(const scenario::Scenario& failing,
                        int max_tests = 300);

}  // namespace panic::proptest
