// Machine-independent hot-path gates on the two checked-in hot-path
// scenarios, at full horizon, under each kernel:
//   * bench_hotpath_saturated.scenario — continuous near-line-rate
//     overload, pool pre-warmed (pool_reserve) past the live
//     high-watermark;
//   * bench_hotpath_steady.scenario — constant-rate load the NIC can
//     sustain, with a warmup that fills the pool to steady-state depth.
//
// Each case checks that the measured window (after warmup) takes no
// message from the heap — zero MessagePool misses — and that the RMT flow
// cache hits at least 90% of its lookups.  The pool is process-wide, so a
// leg only proves allocation-freedom in a fresh process; ctest runs every
// case in its own.  Host speed is perfbench's job (perfbench/README.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/message_pool.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace panic {
namespace {

constexpr double kMinHitRate = 0.90;

void check_leg(const char* file, SimMode mode) {
  std::string error;
  const auto s =
      scenario::Scenario::load(std::string(PANIC_BENCH_DIR "/") + file, &error);
  ASSERT_TRUE(s.has_value()) << file << ": " << error;

  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(*s, opts);
  run.run_warmup();
  const auto before = MessagePool::instance().stats();
  run.run_measure();
  const auto after = MessagePool::instance().stats();
  EXPECT_EQ(after.pool_misses - before.pool_misses, 0u)
      << "the measured window allocated messages from the heap";

  const auto snap = run.sim().snapshot();
  const double hits = snap.sum("rmt.cache.", ".hits");
  const double misses = snap.sum("rmt.cache.", ".misses");
  ASSERT_GT(hits + misses, 0.0) << "the flow cache saw no lookups";
  EXPECT_GE(hits / (hits + misses), kMinHitRate);
}

TEST(HotpathGate, SaturatedDense) {
  check_leg("bench_hotpath_saturated.scenario", SimMode::kStrictTick);
}

TEST(HotpathGate, SaturatedEvent) {
  check_leg("bench_hotpath_saturated.scenario", SimMode::kEventDriven);
}

TEST(HotpathGate, SteadyDense) {
  check_leg("bench_hotpath_steady.scenario", SimMode::kStrictTick);
}

TEST(HotpathGate, SteadyEvent) {
  check_leg("bench_hotpath_steady.scenario", SimMode::kEventDriven);
}

}  // namespace
}  // namespace panic
