// Oracle suite: a healthy build passes every oracle on generated
// scenarios, each run is bit-reproducible from its scenario alone, and
// MetricsSnapshot::diff_names (the differential oracle's comparator)
// distinguishes real divergence from bookkeeping noise.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "proptest/generator.h"
#include "proptest/oracles.h"
#include "proptest/runner.h"
#include "telemetry/metrics.h"

namespace panic::proptest {

using scenario::Scenario;

namespace {

TEST(Oracles, GeneratedScenariosPassOnHealthyBuild) {
  // A small inline sweep; the CI smoke and nightly soak run far more.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Scenario s = generate_scenario(seed, 20000);
    RunResult dense;
    RunResult event;
    const auto violations = check_scenario(s, &dense, &event);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ":\n"
        << to_string(violations) << "\nscenario:\n"
        << s.to_string();
    // The runs actually exercised the NIC.
    EXPECT_GT(dense.outcome.generated, 0u) << "seed " << seed;
    EXPECT_EQ(dense.outcome.generated, event.outcome.generated)
        << "seed " << seed;
    EXPECT_TRUE(dense.conserved) << "seed " << seed;
    EXPECT_TRUE(event.conserved) << "seed " << seed;
  }
}

TEST(Oracles, KvsRequestIdCollisionReplayIsClean) {
  // Two KVS tenants reuse request ids while both have reads outstanding at
  // the RDMA engine; its replies must leave each port in per-tenant order.
  std::string error;
  const auto s = Scenario::load(
      PANIC_REPLAY_DIR "/kvs_request_id_collision.panic", &error);
  ASSERT_TRUE(s.has_value()) << error;
  RunResult event;
  const auto violations = check_scenario(*s, nullptr, &event);
  EXPECT_TRUE(violations.empty()) << to_string(violations);
  EXPECT_GT(event.outcome.tx_packets, 0u);  // replies reached the wire
}

TEST(Oracles, RunsAreBitReproducibleFromTheScenario) {
  const Scenario s = generate_scenario(3, 20000);
  for (const SimMode mode : {SimMode::kStrictTick, SimMode::kEventDriven}) {
    const scenario::Outcome a = run_scenario(s, mode).outcome;
    const scenario::Outcome b = run_scenario(s, mode).outcome;
    EXPECT_EQ(a.final_cycle, b.final_cycle);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.tx_packets, b.tx_packets);
    EXPECT_EQ(a.flits_routed, b.flits_routed);
    // Whole-snapshot equality minus process-history bookkeeping
    // (kernel.alloc.* depends on the global MessagePool's past).
    const auto diff = a.snapshot.diff_names(
        b.snapshot,
        [](const std::string& name) { return name.rfind("kernel.", 0) == 0; });
    EXPECT_TRUE(diff.empty()) << "first diff: " << diff.front();
  }
}

TEST(Oracles, SingleRunChecksPopulateNothingOnCleanRun) {
  const Scenario s = generate_scenario(5, 20000);
  const RunResult r = run_scenario(s, SimMode::kEventDriven);
  std::vector<Violation> out;
  check_single_run(s, r, &out);
  EXPECT_TRUE(out.empty()) << to_string(out);
  EXPECT_EQ(r.credit_violations, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_EQ(r.order_violations, 0u);
}

TEST(SnapshotDiff, FindsValueAndDistributionChanges) {
  telemetry::MetricsRegistry reg;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  reg.expose_counter("a.count", &c1);
  reg.expose_counter("b.count", &c2);
  Histogram h;
  reg.expose_histogram("lat", &h);
  h.record(10);
  const auto before = reg.snapshot();

  c1 = 7;
  h.record(99);
  const auto after = reg.snapshot();

  const auto diff = before.diff_names(after);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], "a.count");
  EXPECT_EQ(diff[1], "lat");

  // Identical snapshots diff empty; the exclusion predicate filters.
  EXPECT_TRUE(before.diff_names(before).empty());
  EXPECT_EQ(before
                .diff_names(after,
                            [](const std::string& n) {
                              return n.rfind("a.", 0) == 0;
                            })
                .size(),
            1u);
}

TEST(SnapshotDiff, MissingMetricEqualsZeroNeverTouched) {
  // A metric registered in one run but absent in the other only counts as
  // a divergence if it was actually touched: value 0 / count 0 == absent.
  telemetry::MetricsRegistry reg_a;
  std::uint64_t zero = 0;
  std::uint64_t live = 3;
  reg_a.expose_counter("only.zero", &zero);
  reg_a.expose_counter("only.live", &live);
  telemetry::MetricsRegistry reg_b;  // registers neither

  const auto diff = reg_a.snapshot().diff_names(reg_b.snapshot());
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], "only.live");
}

}  // namespace
}  // namespace panic::proptest
