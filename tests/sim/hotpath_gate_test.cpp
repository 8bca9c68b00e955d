// Machine-independent hot-path gates on the two checked-in hot-path
// scenarios, at full horizon, under each kernel:
//   * bench_hotpath_saturated.scenario — continuous near-line-rate
//     overload, pool pre-warmed (pool_reserve) past the live
//     high-watermark;
//   * bench_hotpath_steady.scenario — constant-rate load the NIC can
//     sustain, with a warmup that fills the pool to steady-state depth.
//
// Each case checks that the measured window (after warmup) takes no
// message from the heap — zero MessagePool misses — and, with the RMT
// flow cache on, that the cache hits at least 90% of its lookups.  The
// steady cases, with the cache on and off, also require that the whole
// window makes no heap allocation at all: this binary replaces the
// global allocation functions with counting ones.  The saturated cases
// are exempt from that count (DESIGN.md §5).  The pool and the count are
// process-wide, so a case only proves allocation-freedom in a fresh
// process; ctest runs every case in its own.  Host speed is perfbench's
// job (perfbench/README.md).
//
// HostPagesStayFlat checks the saturated leg's host deliveries touch no
// host-memory page.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "net/message_pool.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_malloc(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// Every replaceable allocation function that can be called here, with
// its matching deallocation functions, so no block reaches a sanitizer's
// allocator from the other side.  The deallocation functions stay out of
// line, so no inlined free() meets a pointer from operator new
// (-Wmismatched-new-delete).
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace panic {
namespace {

constexpr double kMinHitRate = 0.90;

/// `heap_free`: the window must make no heap allocation, not only take
/// no message from the heap.
void check_leg(const char* file, SimMode mode, bool rmt_cache,
               bool heap_free) {
  std::string error;
  auto s =
      scenario::Scenario::load(std::string(PANIC_BENCH_DIR "/") + file, &error);
  ASSERT_TRUE(s.has_value()) << file << ": " << error;
  s->rmt_cache_enabled = rmt_cache;

  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(*s, opts);
  run.run_warmup();
  const auto before = MessagePool::instance().stats();
  const std::uint64_t allocations_before = g_heap_allocations.load();
  run.sim().run(s->budget_cycles);
  const std::uint64_t allocations =
      g_heap_allocations.load() - allocations_before;
  const auto after = MessagePool::instance().stats();
  EXPECT_EQ(after.pool_misses - before.pool_misses, 0u)
      << "the measured window allocated messages from the heap";
  if (heap_free) {
    EXPECT_EQ(allocations, 0u) << "heap allocations in the measured window";
  }
  if (!rmt_cache) return;

  const auto snap = run.sim().snapshot();
  const double hits = snap.sum("rmt.cache.", ".hits");
  const double misses = snap.sum("rmt.cache.", ".misses");
  ASSERT_GT(hits + misses, 0.0) << "the flow cache saw no lookups";
  EXPECT_GE(hits / (hits + misses), kMinHitRate);
}

TEST(HotpathGate, HostPagesStayFlat) {
  // Delivered packets are counted, not stored, and this scenario has no
  // KVS log and no host TX, so the host holds no page at L cycles or at
  // 16L.  A scenario whose KVS SETs append values to the host-side log
  // keeps growing, as the paper's KVS design says it should.
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
  EXPECT_EQ(at_l, 0u);
  EXPECT_EQ(host.pages_resident(), 0u);
  EXPECT_GT(host.bytes_written(), 0u);
}

TEST(HotpathGate, SaturatedDense) {
  check_leg("bench_hotpath_saturated.scenario", SimMode::kStrictTick,
            /*rmt_cache=*/true, /*heap_free=*/false);
}

TEST(HotpathGate, SaturatedEvent) {
  check_leg("bench_hotpath_saturated.scenario", SimMode::kEventDriven,
            /*rmt_cache=*/true, /*heap_free=*/false);
}

TEST(HotpathGate, SteadyDense) {
  check_leg("bench_hotpath_steady.scenario", SimMode::kStrictTick,
            /*rmt_cache=*/true, /*heap_free=*/true);
}

TEST(HotpathGate, SteadyEvent) {
  check_leg("bench_hotpath_steady.scenario", SimMode::kEventDriven,
            /*rmt_cache=*/true, /*heap_free=*/true);
}

TEST(HotpathGate, SteadyDenseCacheOff) {
  check_leg("bench_hotpath_steady.scenario", SimMode::kStrictTick,
            /*rmt_cache=*/false, /*heap_free=*/true);
}

TEST(HotpathGate, SteadyEventCacheOff) {
  check_leg("bench_hotpath_steady.scenario", SimMode::kEventDriven,
            /*rmt_cache=*/false, /*heap_free=*/true);
}

}  // namespace
}  // namespace panic
