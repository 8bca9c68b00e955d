// FaultPlan: the deterministic fault schedule — builders, the fault-line
// grammar (FaultSpec::parse, the `fault` lines of a scenario file), its
// error reporting, and to_string/parse round-trips.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include "scenario/scenario.h"

namespace panic::fault {
namespace {

/// Parses one fault line, failing the test on an error.
FaultSpec parse_ok(const std::string& line) {
  std::string error;
  const auto spec = FaultSpec::parse(line, &error);
  EXPECT_TRUE(spec.has_value()) << line << ": " << error;
  return spec.value_or(FaultSpec{});
}

std::string parse_error(const std::string& line) {
  std::string error;
  EXPECT_FALSE(FaultSpec::parse(line, &error).has_value()) << line;
  return error;
}

TEST(FaultPlan, ParsesEveryKind) {
  const FaultSpec kill = parse_ok("kill aux0 @5000 fallback=aux1");
  EXPECT_EQ(kill.kind, FaultKind::kEngineDeath);
  EXPECT_EQ(kill.engine, "aux0");
  EXPECT_EQ(kill.at, 5000u);
  EXPECT_EQ(kill.fallback, "aux1");

  const FaultSpec stall = parse_ok("stall dma @1000 for=200");
  EXPECT_EQ(stall.kind, FaultKind::kEngineStall);
  EXPECT_EQ(stall.duration, 200u);

  const FaultSpec degrade = parse_ok("degrade ipsec_rx @2000 x=4.5 for=1000");
  EXPECT_EQ(degrade.kind, FaultKind::kEngineDegrade);
  EXPECT_DOUBLE_EQ(degrade.factor, 4.5);
  EXPECT_EQ(degrade.duration, 1000u);

  const FaultSpec flaky =
      parse_ok("flaky 6 port=w @1500 p=0.25 delay=12 for=4000");
  EXPECT_EQ(flaky.kind, FaultKind::kLinkFlaky);
  EXPECT_EQ(flaky.router_tile, 6);
  EXPECT_EQ(flaky.port, 3);  // west
  EXPECT_DOUBLE_EQ(flaky.probability, 0.25);
  EXPECT_EQ(flaky.delay, 12u);

  const FaultSpec corrupt = parse_ok("corrupt eth0 @100 p=0.01");
  EXPECT_EQ(corrupt.kind, FaultKind::kCorruption);
  EXPECT_DOUBLE_EQ(corrupt.probability, 0.01);
  EXPECT_EQ(corrupt.duration, 0u);  // permanent

  const FaultSpec leak = parse_ok("leak 3 port=local @0 credits=8");
  EXPECT_EQ(leak.kind, FaultKind::kCreditLeak);
  EXPECT_EQ(leak.router_tile, 3);
  EXPECT_EQ(leak.port, 4);  // local
  EXPECT_EQ(leak.amount, 8u);
}

TEST(FaultPlan, ParsesRecoveryVerbs) {
  const FaultSpec revive = parse_ok("revive aux0 @9000 warmup=500");
  EXPECT_EQ(revive.kind, FaultKind::kEngineRevive);
  EXPECT_EQ(revive.engine, "aux0");
  EXPECT_EQ(revive.at, 9000u);
  EXPECT_EQ(revive.warmup, 500u);

  const FaultSpec spare = parse_ok("spare aux1 for=aux0 @9100");
  EXPECT_EQ(spare.kind, FaultKind::kSpareActivate);
  EXPECT_EQ(spare.engine, "aux1");
  EXPECT_EQ(spare.spare_for, "aux0");  // for= is a name here, not cycles
  EXPECT_EQ(spare.at, 9100u);

  // Default warmup is zero (rejoin the instant the revive lands).
  EXPECT_EQ(parse_ok("revive dma @10").warmup, 0u);

  // spare without its standby target is malformed.
  EXPECT_EQ(parse_error("spare aux1 @10"), "spare requires for=<dead_engine>");
}

TEST(FaultPlan, DefaultPortIsAllPorts) {
  EXPECT_EQ(parse_ok("flaky 2 @10 p=0.5 delay=3").port, -1);
}

TEST(FaultPlan, RoundTripsThroughToString) {
  FaultPlan plan;
  plan.seed = 7;
  plan.kill("aux0", 5000, "aux1")
      .stall("dma", 1000, 200)
      .degrade("kvs", 2000, 2.0, 500)
      .flaky_link(6, 3, 1500, 0.25, 12, 4000)
      .corrupt("eth0", 100, 0.5)
      .leak_credits(3, 4, 0, 8)
      .revive("aux0", 9000, 500)
      .spare("aux1", "aux0", 9100);
  for (const FaultSpec& spec : plan.faults()) {
    EXPECT_EQ(parse_ok(spec.to_string()), spec) << spec.to_string();
  }
}

TEST(FaultPlan, ErrorsNameTheLine) {
  // Fault lines live in scenario files, whose parser prefixes the line
  // and the key to FaultSpec::parse's reason.
  const std::pair<const char*, const char*> cases[] = {
      {"fault kill aux0", "line 2: fault: missing @<cycle>"},
      {"\nfault stall dma @5", "line 3: fault: stall requires for=<cycles>"},
      {"fault leak 3 @5", "line 2: fault: leak requires credits=<n>"},
      {"fault explode dma @5", "line 2: fault: unknown fault kind 'explode'"},
      {"fault flaky dma @5 p=1 delay=1",
       "line 2: fault: router target must be a tile id"},
      {"fault flaky 3 port=up @5 p=1 delay=1",
       "line 2: fault: bad port in port=up"},
      {"fault kill aux0 @5 frobnicate=1",
       "line 2: fault: unknown token 'frobnicate=1'"},
  };
  for (const auto& [line, want] : cases) {
    std::string error;
    EXPECT_FALSE(scenario::Scenario::parse(
                     "panic_scenario 1\n" + std::string(line) + "\nend\n",
                     &error)
                     .has_value())
        << line;
    EXPECT_EQ(error, want);
  }
}

TEST(FaultPlan, CommentsAndBlankLinesIgnored) {
  const auto s = scenario::Scenario::parse(
      "panic_scenario 1\n"
      "# header\n"
      "\n"
      "fault kill dma @10   # trailing comment\n"
      "end\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->faults.size(), 1u);
  EXPECT_EQ(s->faults.faults()[0].engine, "dma");
}

TEST(FaultPlan, NumbersMeanWhatTheySay) {
  // Each of these was once accepted (or wrapped) by strtoull/strtod.
  const std::pair<const char*, const char*> cases[] = {
      {"kill aux0 @-5", "bad @-5: expected 0..2^64-1, got '-5'"},
      {"degrade dma @100 x=nan",
       "bad x=nan: expected a finite number, got 'nan'"},
      {"degrade dma @100 x=0", "bad x=0: expected > 0, got '0'"},
      {"corrupt dma @100 p=-2", "bad p=-2: expected 0..1, got '-2'"},
      {"stall dma @5 for=12x", "bad for=12x: expected an integer, got '12x'"},
      {"stall dma @010 for=5", ""},  // decimal, not octal
      {"leak 3 @5 credits=4294967296",
       "bad credits=4294967296: expected 0..4294967295, got '4294967296'"},
      {"flaky -1 @5 p=1 delay=1", "router target must be a tile id"},
  };
  for (const auto& [line, want] : cases) {
    if (*want == '\0') {
      EXPECT_EQ(parse_ok(line).at, 10u);
    } else {
      EXPECT_EQ(parse_error(line), want);
    }
  }
}

TEST(FaultPlan, DoublesPrintBackExactly) {
  FaultPlan plan;
  plan.degrade("dma", 100, 1.23456789).corrupt("kvs", 5, 0.123456789);
  EXPECT_EQ(plan.faults()[0].to_string(), "degrade dma @100 x=1.23456789");
  EXPECT_EQ(plan.faults()[1].to_string(), "corrupt kvs @5 p=0.123456789");
  for (const FaultSpec& spec : plan.faults()) {
    EXPECT_EQ(parse_ok(spec.to_string()), spec);
  }
}

}  // namespace
}  // namespace panic::fault
