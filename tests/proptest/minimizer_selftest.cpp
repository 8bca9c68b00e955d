// Pins the harness's acceptance criterion end to end: with the planted
// SchedulerQueue off-by-one armed (`panic_fuzz --selftest`'s bug), the
// fuzz pipeline must DETECT the bug, SHRINK the failing scenario to a
// <=10-packet reproducer, and the emitted replay text must REPRODUCE the
// violation bit-identically from its recorded seeds — in both kernel
// modes, since the planted bug is mode-identical by design (only the
// ordering oracle can see it; the differential oracle must stay quiet).
#include <gtest/gtest.h>

#include <string>

#include "engines/sched_queue.h"
#include "proptest/generator.h"
#include "proptest/minimizer.h"
#include "proptest/oracles.h"
#include "proptest/runner.h"

namespace panic::proptest {

using scenario::Scenario;

namespace {

/// Arms the planted bug for the test body and always disarms it after —
/// the flag is process-wide and other suites in this binary must not see
/// it.
class MinimizerSelftest : public ::testing::Test {
 protected:
  void SetUp() override { engines::SchedulerQueue::set_selftest_bug(true); }
  void TearDown() override {
    engines::SchedulerQueue::set_selftest_bug(false);
  }
};

/// Hunts generator seeds until one trips an oracle (the CLI's --selftest
/// does the same; seed 1 finds it immediately on the current build, but
/// the test tolerates drift in the generator).
Scenario find_failing_scenario() {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Scenario s = generate_scenario(seed, 20000);
    if (!check_scenario(s).empty()) return s;
  }
  return Scenario{};  // signalled by workloads.empty()
}

TEST_F(MinimizerSelftest, DetectsShrinksAndReplaysPlantedBug) {
  // --- Detect. ---
  const Scenario failing = find_failing_scenario();
  ASSERT_FALSE(failing.workloads.empty())
      << "planted bug not detected in 50 generator seeds";

  // --- Shrink. ---
  const MinimizeResult min = minimize(failing, 300);
  EXPECT_FALSE(min.violations.empty());
  EXPECT_LE(min.scenario.total_frames(), 10u)
      << "minimizer plateaued at " << min.scenario.total_frames()
      << " frames:\n"
      << min.scenario.to_string();
  EXPECT_GT(min.accepted, 0);

  // The planted bug is a scheduling bug: the ordering oracle must be the
  // one that fired, and the differential oracle must NOT have (the bug is
  // identical under both kernels).
  bool saw_ordering = false;
  for (const Violation& v : min.violations) {
    EXPECT_NE(v.oracle, "differential") << v.detail;
    if (v.oracle == "ordering") saw_ordering = true;
  }
  EXPECT_TRUE(saw_ordering) << to_string(min.violations);

  // --- Replay, bit-identically, from the serialized text alone. ---
  const auto replayed = Scenario::parse(min.scenario.to_string());
  ASSERT_TRUE(replayed.has_value());
  RunResult dense;
  RunResult event;
  const auto again = check_scenario(*replayed, &dense, &event);
  ASSERT_FALSE(again.empty()) << "replay did not reproduce";
  ASSERT_EQ(again.size(), min.violations.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].oracle, min.violations[i].oracle);
    EXPECT_EQ(again[i].detail, min.violations[i].detail);
  }
  // Mode-identical: the bug reproduces under BOTH kernels.
  EXPECT_GT(dense.audit_violations + dense.order_violations, 0u);
  EXPECT_GT(event.audit_violations + event.order_violations, 0u);
  EXPECT_EQ(dense.audit_violations, event.audit_violations);
  EXPECT_EQ(dense.order_violations, event.order_violations);
}

TEST_F(MinimizerSelftest, MinimizedScenarioPassesOnceBugIsFixed) {
  const Scenario failing = find_failing_scenario();
  ASSERT_FALSE(failing.workloads.empty());
  const MinimizeResult min = minimize(failing, 300);
  ASSERT_FALSE(min.violations.empty());

  // "Fixing" the planted bug makes the minimized reproducer pass — the
  // minimizer did not shrink onto an unrelated failure.
  engines::SchedulerQueue::set_selftest_bug(false);
  const auto fixed = check_scenario(min.scenario);
  EXPECT_TRUE(fixed.empty()) << to_string(fixed);
}

TEST_F(MinimizerSelftest, RejectsCandidatesThatFailToBuild) {
  // The offload chain and the stall both name aux1, so shrinking the
  // engine mix to one aux engine yields a candidate that fails to build.
  // That must count as a rejected reduction, not end the minimizer.
  const char* text =
      "panic_scenario 1\n"
      "name build_failure\n"
      "mesh_k 5\n"
      "aux_engines 2\n"
      "aux_fixed_cycles 1\n"
      "budget 20000\n"
      "workload name=gen port=0 kind=udp pattern=const gap=100 frames=20"
      " dport=7777\n"
      "fault stall aux1 @500 for=1500\n"
      "program <<END\n"
      "stage offload {\n"
      "  table offload_port exact(l4.dport) {\n"
      "    7777 -> clear_chain, chain(aux1, dma);\n"
      "  }\n"
      "}\n"
      "END\n"
      "end\n";
  std::string error;
  const auto failing = Scenario::parse(text, &error);
  ASSERT_TRUE(failing.has_value()) << error;
  ASSERT_FALSE(check_scenario(*failing).empty());

  const MinimizeResult min = minimize(*failing, 300);
  EXPECT_FALSE(min.violations.empty());
  EXPECT_EQ(min.scenario.aux_engines, 2);
}

TEST(MinimizerOnHealthyBuild, LeavesPassingScenariosAlone) {
  // Precondition for the suite above: with the bug disarmed the same
  // generator seeds pass, so detection really is the planted bug.
  ASSERT_FALSE(engines::SchedulerQueue::selftest_bug());
  const Scenario s = generate_scenario(1, 20000);
  EXPECT_TRUE(check_scenario(s).empty());
}

}  // namespace
}  // namespace panic::proptest
