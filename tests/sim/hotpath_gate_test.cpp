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
//
// HostPagesStayFlat checks the saturated leg's host memory stops growing
// once the DMA RX ring has wrapped.
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

TEST(HotpathGate, HostPagesStayFlat) {
  // Every delivered packet lands in the fixed RX ring, so once the ring
  // has wrapped the host holds the same pages from L cycles to 16L: the
  // ring's 256 and nothing else, since this scenario has no KVS log and
  // no host TX.  A scenario whose KVS SETs append values to the host-side
  // log keeps growing, as the paper's KVS design says it should:
  // offload_mix goes from 260 pages at 1M cycles to 319 at 16M.
  constexpr Cycles kL = 250'000;
  std::string error;
  const auto s = scenario::Scenario::load(
      PANIC_BENCH_DIR "/bench_hotpath_saturated.scenario", &error);
  ASSERT_TRUE(s.has_value()) << error;
  scenario::ScenarioRun run(*s);
  const engines::HostMemory& host = run.nic().host_memory();
  run.sim().run(kL);
  const std::size_t at_l = host.pages_resident();
  run.sim().run(15 * kL);
  EXPECT_EQ(host.pages_resident(), at_l);
  EXPECT_EQ(at_l, engines::HostMemory::kRxRingBytes / 4096);
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
