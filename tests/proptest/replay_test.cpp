// Replays reproduce: every scenario the fuzz generators draw prints to
// text that parses back to the same scenario, field for field, and so runs
// to the same result JSON.  (Doubles once printed with six significant
// digits, and 11 of the first 40 generated scenarios then ran differently
// from the replay panic_fuzz saved for them.)
#include <gtest/gtest.h>

#include <string>

#include "net/conservation.h"
#include "net/message_pool.h"
#include "proptest/generator.h"
#include "scenario/runner.h"

namespace panic::proptest {

using scenario::Scenario;

namespace {

TEST(Replay, PrintedScenariosParseBackFieldForField) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const Scenario& s :
         {generate_scenario(seed), generate_rank_scenario(seed),
          generate_chaos_scenario(seed)}) {
      std::string error;
      const auto parsed = Scenario::parse(s.to_string(), &error);
      ASSERT_TRUE(parsed.has_value()) << "seed " << seed << ": " << error;
      EXPECT_TRUE(*parsed == s) << "seed " << seed << ":\n" << s.to_string();
    }
  }
}

std::string result_json(const Scenario& s) {
  // Each run starts from the same process-wide pool and ledger state.
  MessagePool::instance().trim();
  ConservationLedger::instance().reset();
  scenario::ScenarioRun run(s);
  run.run_all();
  return run.result_json();
}

TEST(Replay, ReparsedScenariosRunToTheSameResult) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario s = generate_scenario(seed);
    const auto parsed = Scenario::parse(s.to_string());
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(result_json(*parsed), result_json(s)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace panic::proptest
