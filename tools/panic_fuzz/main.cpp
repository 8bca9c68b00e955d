// panic_fuzz: randomized differential property-testing harness.
//
//   panic_fuzz [--runs N] [--seed S] [--budget-cycles C] [--out FILE]
//              [--chaos | --sched]
//   panic_fuzz --replay FILE
//   panic_fuzz --selftest
//   panic_fuzz --selftest-tie
//
// Default mode generates N seeded scenarios (seed S, S+1, ...), runs each
// under both kernel modes (dense and event-driven) and applies the oracle
// suite.  On the first violation it greedily minimizes
// the scenario and writes a self-contained replay file (default
// panic_fuzz_min.panic), then exits 1.
//
// --chaos swaps in the chaos generator: overlapping fault storms (kills +
// revive/spare recoveries, stall/degrade/corrupt/flaky chaff) over
// aux-chained traffic, half of them under `on_no_route backpressure`.
// Every storm is recoverable by construction, so the convergence oracle
// applies on top of the usual suite; failures minimize to
// panic_chaos_min.panic (replay files are ordinary scenarios — --replay
// needs no flag).
//
// --sched swaps in the rank-program generator: each scenario's scheduler
// runs a RANDOM custom rank program (per-tenant-monotone by construction,
// so the ordering oracle stays sound) and the SchedulerQueue shadow audit
// cross-checks every dequeue against an independent interpreted
// evaluation of the same program.  Failures minimize to
// panic_sched_min.panic.
//
// --replay re-runs a saved case: the file records every seed, so the run
// reproduces bit-identically — in every kernel mode — from the file alone.
//
// --selftest arms the planted SchedulerQueue off-by-one (see
// SchedulerQueue::set_selftest_bug in engines/sched_queue.h) and verifies
// the harness end to end: the bug must be detected, shrink to a
// <=10-packet scenario, and the emitted replay must still reproduce it.
// Exits 0 only if the whole pipeline works.
//
// --selftest-tie is the same drill against the second planted bug — a
// tie-break off-by-one INSIDE the heap comparator
// (SchedulerQueue::set_selftest_tiebug): equal-rank messages dequeue
// newest-first.  Only an audit that re-derives the (rank, seq) order independently of the
// comparator can see it, which is precisely what the dequeue audit does.
// The hunt pins `sched prio` (constant rank per tenant, so ties are
// guaranteed under any queue buildup).
#include <cstdio>
#include <exception>
#include <limits>
#include <string>

#include "common/cli.h"
#include "common/rng.h"
#include "proptest/generator.h"
#include "proptest/minimizer.h"
#include "proptest/oracles.h"
#include "engines/sched_queue.h"

namespace {

using panic::proptest::MinimizeResult;
using panic::proptest::Violation;
using panic::scenario::Scenario;

struct Options {
  int runs = 50;
  std::uint64_t seed = 1;
  panic::Cycles budget_cycles = 0;  // 0 = generator picks per scenario
  std::string out = "panic_fuzz_min.panic";
  bool out_given = false;
  std::string replay;
  bool selftest = false;
  bool selftest_tie = false;
  bool chaos = false;
  bool sched = false;
  int max_shrink_tests = 300;
};

/// panic_fuzz's --seed names the GENERATOR base seed (scenario files must
/// reproduce from disk alone, so the process-wide sim seed stays at its
/// default — a shifted global would change every derived stream without
/// being recorded in the replay file).
Options parse_args(int argc, char** argv) {
  panic::cli::ArgParser args(
      "panic_fuzz", "randomized differential fuzzing with oracle suite");
  Options opt;
  args.option("runs", "scenarios to generate (seed S, S+1, ...)", &opt.runs,
              {0, std::numeric_limits<int>::max()});
  args.option("budget-cycles", "per-scenario cycle budget (0 = generator)",
              &opt.budget_cycles);
  args.option("out", "replay file for a minimized failure", &opt.out);
  args.option("replay", "re-run a saved replay file", &opt.replay);
  args.flag("selftest", "verify the harness against a planted bug",
            &opt.selftest);
  args.flag("selftest-tie",
            "verify the harness against a planted tie-break comparator bug",
            &opt.selftest_tie);
  args.flag("chaos", "overlapping fault storms with recovery convergence",
            &opt.chaos);
  args.flag("sched", "random PIFO rank-program scenarios",
            &opt.sched);
  args.parse(argc, argv);
  opt.out_given = opt.out != "panic_fuzz_min.panic";
  if (opt.chaos && !opt.out_given) opt.out = "panic_chaos_min.panic";
  if (opt.sched && !opt.out_given) opt.out = "panic_sched_min.panic";
  if (opt.selftest_tie && !opt.out_given) opt.out = "panic_tie_min.panic";
  if (args.seed_given()) {
    opt.seed = args.seed();
    panic::set_sim_seed(panic::kDefaultSimSeed);
  }
  return opt;
}

void print_violations(const std::vector<Violation>& violations) {
  std::fputs(panic::proptest::to_string(violations).c_str(), stdout);
}

/// Minimizes `failing`, writes the replay file, prints a summary.
MinimizeResult shrink_and_save(const Scenario& failing, const Options& opt) {
  std::printf("minimizing (%d candidate budget)...\n", opt.max_shrink_tests);
  MinimizeResult min =
      panic::proptest::minimize(failing, opt.max_shrink_tests);
  std::printf(
      "minimized: %d candidates tested, %d reductions accepted; "
      "%llu frame(s), %zu workload(s), %zu fault(s), mesh %dx%d, "
      "budget %llu cycles\n",
      min.tested, min.accepted,
      static_cast<unsigned long long>(min.scenario.total_frames()),
      min.scenario.workloads.size(), min.scenario.faults.size(),
      min.scenario.mesh_k, min.scenario.mesh_k,
      static_cast<unsigned long long>(min.scenario.budget_cycles));
  if (min.scenario.save(opt.out)) {
    std::printf("replay written to %s\n", opt.out.c_str());
  } else {
    std::fprintf(stderr, "FAILED to write replay file %s\n",
                 opt.out.c_str());
  }
  print_violations(min.violations);
  return min;
}

int run_replay(const Options& opt) {
  std::string error;
  auto scenario = Scenario::load(opt.replay, &error);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "cannot load %s: %s\n", opt.replay.c_str(),
                 error.c_str());
    return 2;
  }
  if (!scenario->feasible(/*strict_finite=*/true, &error)) {
    std::fprintf(stderr, "%s: not feasible: %s\n", opt.replay.c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("replaying %s (%llu frames, budget %llu cycles)\n",
              opt.replay.c_str(),
              static_cast<unsigned long long>(scenario->total_frames()),
              static_cast<unsigned long long>(scenario->budget_cycles));
  std::vector<Violation> violations;
  try {
    violations = panic::proptest::check_scenario(*scenario);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.replay.c_str(), e.what());
    return 2;
  }
  if (violations.empty()) {
    std::printf("replay PASSED: no oracle violations\n");
    return 0;
  }
  std::printf("replay reproduced %zu violation(s):\n", violations.size());
  print_violations(violations);
  return 1;
}

int run_fuzz(const Options& opt) {
  for (int i = 0; i < opt.runs; ++i) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    Scenario scenario =
        opt.chaos ? panic::proptest::generate_chaos_scenario(seed)
        : opt.sched
            ? panic::proptest::generate_rank_scenario(seed, opt.budget_cycles)
            : panic::proptest::generate_scenario(seed, opt.budget_cycles);
    const auto violations = panic::proptest::check_scenario(scenario);
    std::printf("%s %d/%d seed=%llu frames=%llu faults=%zu %s\n",
                opt.chaos   ? "storm"
                : opt.sched ? "rank"
                            : "run",
                i + 1, opt.runs,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(scenario.total_frames()),
                scenario.faults.size(),
                violations.empty() ? "ok" : "VIOLATION");
    std::fflush(stdout);
    if (!violations.empty()) {
      print_violations(violations);
      shrink_and_save(scenario, opt);
      return 1;
    }
  }
  std::printf("%d run(s), zero oracle violations\n", opt.runs);
  return 0;
}

/// Both planted-bug drills: arm the bug, hunt with the standard generator
/// until an oracle fires, shrink to <= 10 frames, and require the replay
/// file to reproduce from disk.
///
/// --selftest's off-by-one dequeues the second-best message; identical in
/// both kernel modes, so only the ordering oracle can see it.
///
/// --selftest-tie's comparator bug dequeues equal-rank messages
/// newest-first.  Its hunt pins `sched prio`: rank == tenant is constant
/// per tenant, so any queue holding two messages of one tenant is a tie
/// the bug inverts — caught by the audit's explicit (rank, seq)
/// re-derivation (the comparator itself cannot be trusted to judge its own
/// tie-break) and, at egress, by the per-tenant ordering oracle.
int run_selftest(const Options& opt) {
  const bool tie = !opt.selftest;
  const char* name = tie ? "selftest-tie" : "selftest";
  if (tie) {
    panic::engines::SchedulerQueue::set_selftest_tiebug(true);
    std::printf("%s: planted tie-break comparator bug armed\n", name);
  } else {
    panic::engines::SchedulerQueue::set_selftest_bug(true);
    std::printf("%s: planted SchedulerQueue off-by-one armed\n", name);
  }

  Scenario failing;
  bool found = false;
  const int hunt_runs = opt.runs > 0 ? opt.runs : 50;
  for (int i = 0; i < hunt_runs && !found; ++i) {
    Scenario s = panic::proptest::generate_scenario(
        opt.seed + static_cast<std::uint64_t>(i), opt.budget_cycles);
    if (tie) s.sched_policy = panic::engines::SchedKind::kPrio;
    if (!panic::proptest::check_scenario(s).empty()) {
      failing = s;
      found = true;
      std::printf("%s: detected by seed %llu (run %d)\n", name,
                  static_cast<unsigned long long>(opt.seed + i), i + 1);
    }
  }
  if (!found) {
    std::fprintf(stderr, "%s FAILED: planted bug not detected in %d runs\n",
                 name, hunt_runs);
    return 1;
  }

  const MinimizeResult min = shrink_and_save(failing, opt);
  const auto frames =
      static_cast<unsigned long long>(min.scenario.total_frames());
  if (frames > 10) {
    std::fprintf(stderr,
                 "%s FAILED: minimized scenario still has %llu frames "
                 "(want <= 10)\n",
                 name, frames);
    return 1;
  }

  // The replay file must reproduce from disk, bit-identically.
  Options replay_opt = opt;
  replay_opt.replay = opt.out;
  if (run_replay(replay_opt) != 1) {
    std::fprintf(stderr, "%s FAILED: replay file did not reproduce\n", name);
    return 1;
  }
  std::printf("%s PASSED: detected, shrunk to %llu frame(s), replay "
              "reproduces\n",
              name, frames);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (opt.selftest || opt.selftest_tie) return run_selftest(opt);
  if (!opt.replay.empty()) return run_replay(opt);
  return run_fuzz(opt);
}
