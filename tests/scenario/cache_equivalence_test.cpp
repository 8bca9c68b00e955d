// The flow cache's semantic-invisibility contract, end to end: cache-on
// and cache-off runs of the same scenario are bit-identical in every
// observable metric (modulo the cache's own rmt.cache.* namespace) across
// both kernels — including under a mid-run engine death whose
// re-steer must invalidate every memoized chain.
#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <string>

namespace panic::scenario {
namespace {

/// Metrics allowed to differ between cache-on and cache-off runs:
/// kernel.* (tick bookkeeping and process-wide pool gauges) and the
/// cache's own rmt.cache.* namespace.
bool excluded_from_cache_diff(const std::string& name) {
  return name.rfind("kernel.", 0) == 0 || name.rfind("rmt.cache.", 0) == 0;
}

/// kernel.* alone — for cross-kernel diffs of two cache-on runs.
bool excluded_from_kernel_diff(const std::string& name) {
  return name.rfind("kernel.", 0) == 0;
}

telemetry::MetricsSnapshot run_snap(const Scenario& s, SimMode mode) {
  RunOptions opts;
  opts.mode = mode;
  ScenarioRun run(s, opts);
  run.run_all();
  return run.sim().snapshot();
}

/// Low-flow-count UDP through an aux chain, with aux0 killed mid-run.
/// flows=4 makes the cache actually hit; the kill bumps the steering
/// generation, so every cached chain must be flushed and later messages
/// re-steered to aux1 (the automatic aux equivalence group).
const char* kFaultScenario =
    "panic_scenario 1\n"
    "name cache_fault_resteer\n"
    "mesh_k 5\n"
    "aux_engines 2\n"
    "aux_fixed_cycles 1\n"
    "budget 20000\n"
    "workload name=gen port=0 kind=udp pattern=const gap=40 frames=300"
    " flows=4 seed=3\n"
    "fault kill aux0 @8000\n"
    "program <<END\n"
    "stage chain {\n"
    "  table chain ternary(meta.msg_kind) {\n"
    "    0 prio 1 -> clear_chain, chain(aux0, dma);\n"
    "  }\n"
    "}\n"
    "END\n"
    "end\n";

TEST(CacheEquivalence, FaultResteerBitIdenticalAcrossKernelsAndCache) {
  std::string error;
  const auto s = Scenario::parse(kFaultScenario, &error);
  ASSERT_TRUE(s.has_value()) << error;
  ASSERT_TRUE(s->feasible());
  ASSERT_TRUE(s->rmt_cache_enabled);

  Scenario off = *s;
  off.rmt_cache_enabled = false;

  telemetry::MetricsSnapshot first_on;
  bool have_first = false;
  for (const SimMode mode : {SimMode::kStrictTick, SimMode::kEventDriven}) {
    SCOPED_TRACE(panic::to_string(mode));
    const auto snap_on = run_snap(*s, mode);
    const auto snap_off = run_snap(off, mode);

    // Cache on vs off within one kernel: identical modulo rmt.cache.*.
    const auto cache_diff =
        snap_on.diff_names(snap_off, excluded_from_cache_diff);
    EXPECT_TRUE(cache_diff.empty())
        << cache_diff.size() << " metrics differ, first: "
        << cache_diff.front();
    // The off run publishes no cache metrics at all.
    EXPECT_EQ(snap_off.sum("rmt.cache.", ""), 0.0);

    // Cache-on across kernels: identical modulo kernel.*.
    if (!have_first) {
      first_on = snap_on;
      have_first = true;
    } else {
      const auto mode_diff =
          snap_on.diff_names(first_on, excluded_from_kernel_diff);
      EXPECT_TRUE(mode_diff.empty())
          << mode_diff.size() << " metrics differ, first: "
          << mode_diff.front();
    }

    // The scenario exercised what it claims to: real hits before the
    // kill, a steering flush at the kill, re-steers after it.
    EXPECT_GT(snap_on.sum("rmt.cache.", ".hits"), 0.0);
    EXPECT_GT(snap_on.sum("rmt.cache.", ".flushes"), 0.0);
    EXPECT_GT(snap_on.sum("rmt.", ".resteered"), 0.0);
  }
}

/// A stateful (register) program must deactivate the cache — and stay
/// bit-identical with the cache nominally enabled.
const char* kRegisterScenario =
    "panic_scenario 1\n"
    "name cache_uncacheable_regs\n"
    "budget 10000\n"
    "workload name=gen port=0 kind=udp pattern=const gap=50 frames=100"
    " flows=4 seed=3\n"
    "program <<END\n"
    "stage count {\n"
    "  table counters ternary(meta.msg_kind) {\n"
    "    0/0 -> reg_add(meta.cache_hint, 2, meta.tenant, 1);\n"
    "  }\n"
    "}\n"
    "END\n"
    "end\n";

TEST(CacheEquivalence, RegisterProgramDeactivatesCacheButStaysIdentical) {
  std::string error;
  const auto s = Scenario::parse(kRegisterScenario, &error);
  ASSERT_TRUE(s.has_value()) << error;
  ASSERT_TRUE(s->feasible());

  Scenario off = *s;
  off.rmt_cache_enabled = false;

  const auto snap_on = run_snap(*s, SimMode::kEventDriven);
  const auto snap_off = run_snap(off, SimMode::kEventDriven);

  const auto diff = snap_on.diff_names(snap_off, excluded_from_cache_diff);
  EXPECT_TRUE(diff.empty())
      << diff.size() << " metrics differ, first: " << diff.front();

  // The cache saw the register primitive and deactivated itself: the
  // cacheable gauge reads 0 on every engine, and nothing ever hit.
  EXPECT_EQ(snap_on.sum("rmt.cache.", ".cacheable"), 0.0);
  EXPECT_EQ(snap_on.sum("rmt.cache.", ".hits"), 0.0);
  EXPECT_EQ(snap_on.sum("rmt.cache.", ".inserts"), 0.0);
}

}  // namespace
}  // namespace panic::scenario
