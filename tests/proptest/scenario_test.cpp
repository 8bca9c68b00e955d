// Scenario grammar: replay round-trips, parse diagnostics, feasibility,
// and generator determinism/feasibility across a seed sweep.
#include <gtest/gtest.h>

#include "proptest/generator.h"
#include "scenario/scenario.h"

namespace panic::proptest {

using scenario::Scenario;
using scenario::WorkloadSpec;

namespace {

Scenario small_scenario() {
  Scenario s;
  s.seed = 7;
  s.mesh_k = 4;
  s.eth_ports = 2;
  s.rmt_engines = 1;
  s.aux_engines = 2;
  s.sched_policy = engines::SchedKind::kSlack;
  s.drop_policy = engines::DropPolicy::kEvictLoosest;
  s.engine_queue_capacity = 8;
  s.rmt_input_queue = 64;
  s.dma_contention_mean = 150.0;
  s.default_slack = 100;
  s.tenant_slacks = {{1, 10}, {2, 100000}};
  s.budget_cycles = 30000;
  WorkloadSpec w;
  w.port = 1;
  w.kind = WorkloadSpec::Kind::kKvs;
  w.tenant = 2;
  w.pattern = workload::ArrivalPattern::kOnOff;
  w.mean_gap_cycles = 33.5;
  w.on_cycles = 700;
  w.off_cycles = 4200;
  w.max_frames = 55;
  w.frame_bytes = 512;
  w.dst_port = 5353;
  w.wan_fraction = 1.0;
  w.seed = 0xBEEF;
  s.workloads.push_back(w);
  s.faults.seed = 99;
  s.faults.kill("aux0", 9000).stall("dma", 4000, 800).leak_credits(5, 2, 100,
                                                                   2);
  return s;
}

TEST(Scenario, RoundTripsThroughReplayFormat) {
  const Scenario s = small_scenario();
  const std::string text = s.to_string();
  std::string error;
  const auto parsed = Scenario::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // Textual fixpoint == every field survived.
  EXPECT_EQ(parsed->to_string(), text);
  EXPECT_EQ(parsed->seed, s.seed);
  EXPECT_EQ(parsed->budget_cycles, s.budget_cycles);
  EXPECT_EQ(parsed->workloads.size(), 1u);
  EXPECT_EQ(parsed->workloads[0].kind, WorkloadSpec::Kind::kKvs);
  EXPECT_EQ(parsed->workloads[0].wan_fraction, 1.0);
  EXPECT_EQ(parsed->faults.size(), 3u);
  EXPECT_EQ(parsed->faults.seed, 99u);
  EXPECT_EQ(parsed->tenant_slacks, s.tenant_slacks);
}

TEST(Scenario, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Scenario::parse("", &error).has_value());
  EXPECT_FALSE(Scenario::parse("bogus 1\nend\n", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);

  EXPECT_FALSE(
      Scenario::parse("panic_scenario 1\nmesh_k 4\n", &error).has_value());
  EXPECT_NE(error.find("end"), std::string::npos);

  EXPECT_FALSE(
      Scenario::parse("panic_scenario 1\nwibble 3\nend\n", &error).has_value());
  EXPECT_NE(error.find("wibble"), std::string::npos);

  EXPECT_FALSE(Scenario::parse("panic_scenario 1\nworkload port=zero\nend\n",
                               &error)
                   .has_value());

  EXPECT_FALSE(
      Scenario::parse("panic_scenario 1\nfault explode dma @5\nend\n", &error)
          .has_value());
  EXPECT_EQ(error, "line 2: fault: unknown fault kind 'explode'");
}

TEST(Scenario, ParseAcceptsCommentsAndBlankLines) {
  const auto parsed = Scenario::parse(
      "# a comment\n\npanic_scenario 1\n  # indented comment\nmesh_k 5\nend\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mesh_k, 5);
}

TEST(Scenario, FeasibilityChecksTopologyAndWorkloads) {
  Scenario s = small_scenario();
  EXPECT_TRUE(s.feasible());

  // 11 fixed + 2 eth + 1 rmt + 2 aux = 16 tiles: exactly fits k=4.
  s.mesh_k = 3;
  EXPECT_FALSE(s.feasible());
  s.mesh_k = 4;
  s.aux_engines = 3;
  EXPECT_FALSE(s.feasible());
  s.aux_engines = 2;

  s.workloads[0].port = 2;  // only ports 0 and 1 exist
  EXPECT_FALSE(s.feasible());
  s.workloads[0].port = 1;

  // An infinite trace is fine for hand-written scenarios (the budget bounds
  // the run) but rejected in strict mode, which the fuzz harness uses.
  s.workloads[0].max_frames = 0;
  EXPECT_TRUE(s.feasible());
  EXPECT_FALSE(s.feasible(/*strict_finite=*/true));
  s.workloads[0].max_frames = 5;

  s.budget_cycles = 0;
  EXPECT_FALSE(s.feasible());
}

TEST(Scenario, ToConfigCarriesEveryKnob) {
  const Scenario s = small_scenario();
  const core::PanicConfig cfg = s.to_config();
  EXPECT_EQ(cfg.mesh.k, 4);
  EXPECT_EQ(cfg.eth_ports, 2);
  EXPECT_EQ(cfg.rmt_engines, 1);
  EXPECT_EQ(cfg.aux_engines, 2);
  EXPECT_EQ(cfg.sched_policy, engines::SchedKind::kSlack);
  EXPECT_EQ(cfg.drop_policy, engines::DropPolicy::kEvictLoosest);
  EXPECT_EQ(cfg.engine_queue_capacity, 8u);
  EXPECT_EQ(cfg.rmt_input_queue, 64u);
  EXPECT_EQ(cfg.dma.contention_mean, 150.0);
  EXPECT_EQ(cfg.default_slack, 100u);
  EXPECT_EQ(cfg.tenant_slacks, s.tenant_slacks);
  EXPECT_EQ(cfg.faults.size(), 3u);
}

TEST(Generator, ProducesFeasibleScenariosAcrossSeeds) {
  int west_first = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = generate_scenario(seed);
    if (s.routing == noc::RoutingAlgo::kWestFirst) ++west_first;
    EXPECT_TRUE(s.feasible()) << "seed " << seed << ":\n" << s.to_string();
    EXPECT_GE(s.workloads.size(), 1u) << "seed " << seed;
    EXPECT_GT(s.total_frames(), 0u) << "seed " << seed;
    // Every trace must be finite and every tenant distinct (the ordering
    // oracle's precondition).
    for (std::size_t i = 0; i < s.workloads.size(); ++i) {
      for (std::size_t j = i + 1; j < s.workloads.size(); ++j) {
        EXPECT_NE(s.workloads[i].tenant, s.workloads[j].tenant)
            << "seed " << seed;
      }
    }
    // Scenarios round-trip (the nightly soak saves them on failure).
    const auto parsed = Scenario::parse(s.to_string());
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(parsed->to_string(), s.to_string()) << "seed " << seed;
  }
  // About a quarter of the scenarios route west-first.
  EXPECT_GT(west_first, 25);
  EXPECT_LT(west_first, 75);
}

TEST(Generator, IsDeterministicAndSeedSensitive) {
  EXPECT_EQ(generate_scenario(42).to_string(),
            generate_scenario(42).to_string());
  EXPECT_NE(generate_scenario(42).to_string(),
            generate_scenario(43).to_string());
  // A pinned budget overrides the generated one.
  EXPECT_EQ(generate_scenario(42, 12345).budget_cycles, 12345u);
}

}  // namespace
}  // namespace panic::proptest
