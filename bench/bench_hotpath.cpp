// Hot-path benchmark: wall-clock cost per simulated cycle for the RMT
// fast path, plus the machine-independent gates that keep it honest.
//
// Two scenarios, checked in as scenario files:
//   * bench_hotpath_saturated.scenario — continuous near-line-rate
//     overload, pool pre-warmed past the live high-watermark: an
//     allocation-free measured window under saturation.
//   * bench_hotpath_steady.scenario — constant-rate load the NIC can
//     sustain; after warmup the measured window must be miss-free.
//
// Every leg runs dense + event kernels, plus an event run with the flow
// cache disabled.  The dense and event snapshots must agree on every
// metric outside kernel.* (the event kernel runs different code in the
// NoC — wormhole trains — so headline totals alone are not enough), and
// the cache-on and cache-off snapshots on every metric outside kernel.*
// and rmt.cache.* — the cache is a host-time optimization, never a
// semantic one.  The steady-state cache hit rate must be >= 90%; the bench
// exits nonzero if any gate fails.  ns/cycle is informational: it only
// compares against another build measured on the same machine (perfbench
// does that).  Results go to stdout and, machine-readable, to
// BENCH_hotpath.json.  `--smoke` shrinks the horizons for CI.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.h"
#include "net/message_pool.h"
#include "scenario/runner.h"

using namespace panic;

namespace {

// Steady-state flow-cache hit-rate floor (machine-independent gate).
constexpr double kMinHitRate = 0.90;

/// Metrics allowed to differ between kernels: the kernel's own tick and
/// wake-up bookkeeping and the process-wide pool gauges.
bool excluded_from_kernel_diff(const std::string& name) {
  return name.rfind("kernel.", 0) == 0;
}

/// Metrics allowed to differ between cache-on and cache-off runs:
/// kernel.* (tick/wakeup bookkeeping and process-wide pool gauges) and the
/// cache's own rmt.cache.* namespace.  Everything else must be identical.
bool excluded_from_cache_diff(const std::string& name) {
  return excluded_from_kernel_diff(name) || name.rfind("rmt.cache.", 0) == 0;
}

struct RunResult {
  double wall_ms = 0.0;
  double ns_per_cycle = 0.0;
  std::uint64_t delivered = 0;
  // Message-pool deltas over the *measured* window (post-warmup).
  std::uint64_t pool_hit = 0;
  std::uint64_t pool_miss = 0;
  std::uint64_t bytes_reused = 0;
  std::uint64_t live_high_watermark = 0;
  // Flow-cache totals (zero when the cache is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  telemetry::MetricsSnapshot snapshot;
};

RunResult run_one(const scenario::Scenario& s, SimMode mode) {
  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(s, opts);

  run.run_warmup();

  const auto pool_before = MessagePool::instance().stats();
  const auto start = std::chrono::steady_clock::now();
  run.run_measure();
  const auto stop = std::chrono::steady_clock::now();
  const auto pool_after = MessagePool::instance().stats();

  RunResult r;
  r.snapshot = run.sim().snapshot();
  const auto& snap = r.snapshot;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  r.ns_per_cycle =
      r.wall_ms * 1e6 / static_cast<double>(s.budget_cycles);
  r.delivered = snap.counter("engine.dma.packets_to_host");
  r.pool_hit = pool_after.pool_hits - pool_before.pool_hits;
  r.pool_miss = pool_after.pool_misses - pool_before.pool_misses;
  r.bytes_reused = pool_after.bytes_reused - pool_before.bytes_reused;
  r.live_high_watermark = pool_after.live_high_watermark;
  r.cache_hits =
      static_cast<std::uint64_t>(snap.sum("rmt.cache.", ".hits"));
  r.cache_misses =
      static_cast<std::uint64_t>(snap.sum("rmt.cache.", ".misses"));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_hotpath",
                      "ns/cycle + kernel, pool and flow-cache gates");
  bool smoke = false;
  args.flag("smoke", "divide horizons by 10 for CI", &smoke);
  args.parse(argc, argv);
  const std::uint64_t seed = args.seed();

  struct Leg {
    const char* file;
    scenario::Scenario scenario;
  };
  Leg legs[] = {
      {"bench_hotpath_saturated.scenario", {}},
      {"bench_hotpath_steady.scenario", {}},
  };
  for (Leg& leg : legs) {
    std::string error;
    auto s = scenario::Scenario::load(
        std::string(PANIC_SCENARIO_DIR "/") + leg.file, &error);
    if (!s.has_value()) {
      std::fprintf(stderr, "cannot load %s: %s\n", leg.file, error.c_str());
      return EXIT_FAILURE;
    }
    leg.scenario = *s;
    if (smoke) {
      leg.scenario.budget_cycles /= 10;
      leg.scenario.warmup_cycles /= 10;
    }
  }

  std::string json = "{\n  \"bench\": \"hotpath\",\n  \"seed\": " +
                     std::to_string(seed) + ",\n";
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "  \"min_hit_rate\": %.2f,\n  \"scenarios\": [",
                  kMinHitRate);
    json += buf;
  }

  bool first = true;
  bool ok = true;

  for (const Leg& leg : legs) {
    const scenario::Scenario& sc = leg.scenario;
    const char* name = sc.name.c_str();
    const RunResult dense = run_one(sc, SimMode::kStrictTick);
    const RunResult event = run_one(sc, SimMode::kEventDriven);

    // The two kernels must agree on every simulated metric — a speedup on
    // a diverging simulation would be meaningless.
    const auto kernel_diff =
        dense.snapshot.diff_names(event.snapshot, excluded_from_kernel_diff);
    const bool kernels_match = kernel_diff.empty();
    if (!kernels_match) {
      std::fprintf(stderr,
                   "FAIL %s: dense/event snapshots differ on %zu metric(s):"
                   " %s\n",
                   name, kernel_diff.size(), kernel_diff.front().c_str());
      ok = false;
    }

    // Cache-off control run (event kernel): must be bit-identical on every
    // observable metric — the flow cache may only change host time.
    scenario::Scenario sc_off = sc;
    sc_off.rmt_cache_enabled = false;
    const RunResult off = run_one(sc_off, SimMode::kEventDriven);
    const auto cache_diff =
        event.snapshot.diff_names(off.snapshot, excluded_from_cache_diff);
    const bool cache_identical = cache_diff.empty();
    if (!cache_identical) {
      std::fprintf(stderr,
                   "FAIL %s: cache-on/cache-off runs differ on %zu "
                   "metric(s)%s%s\n",
                   name, cache_diff.size(), cache_diff.empty() ? "" : ": ",
                   cache_diff.empty() ? "" : cache_diff.front().c_str());
      ok = false;
    }
    const double cache_speedup =
        event.ns_per_cycle > 0.0 ? off.ns_per_cycle / event.ns_per_cycle
                                 : 0.0;

    const std::uint64_t cache_total = event.cache_hits + event.cache_misses;
    const double hit_rate =
        cache_total > 0
            ? static_cast<double>(event.cache_hits) /
                  static_cast<double>(cache_total)
            : 0.0;
    if (hit_rate < kMinHitRate) {
      std::fprintf(stderr,
                   "FAIL %s: flow-cache hit rate %.4f below %.2f floor\n",
                   name, hit_rate, kMinHitRate);
      ok = false;
    }

    std::printf("--- %s (%llu warmup + %llu measured cycles, %llu packets)"
                " ---\n",
                name, static_cast<unsigned long long>(sc.warmup_cycles),
                static_cast<unsigned long long>(sc.budget_cycles),
                static_cast<unsigned long long>(event.delivered));
    std::printf("  dense:  %8.1f ms  %7.2f ns/cycle\n", dense.wall_ms,
                dense.ns_per_cycle);
    std::printf("  event:  %8.1f ms  %7.2f ns/cycle  snapshots match=%s\n",
                event.wall_ms, event.ns_per_cycle,
                kernels_match ? "yes" : "NO");
    std::printf("  cache:  hit rate %.4f (%llu hits / %llu misses),"
                " off-leg %7.2f ns/cycle, speedup %.2fx, identical=%s",
                hit_rate, static_cast<unsigned long long>(event.cache_hits),
                static_cast<unsigned long long>(event.cache_misses),
                off.ns_per_cycle, cache_speedup,
                cache_identical ? "yes" : "NO");
    std::printf("\n  alloc:  hit %llu + %llu  miss %llu + %llu"
                "  bytes_reused %llu + %llu\n",
                static_cast<unsigned long long>(dense.pool_hit),
                static_cast<unsigned long long>(event.pool_hit),
                static_cast<unsigned long long>(dense.pool_miss),
                static_cast<unsigned long long>(event.pool_miss),
                static_cast<unsigned long long>(dense.bytes_reused),
                static_cast<unsigned long long>(event.bytes_reused));

    // Both legs must be allocation-free in the measured window: the steady
    // leg after warmup, the saturated leg via its pool_reserve pre-warm.
    const std::uint64_t misses = dense.pool_miss + event.pool_miss;
    if (misses != 0) {
      std::fprintf(stderr,
                   "FAIL %s: %llu pool misses in the measured window"
                   " (hot path allocated)\n",
                   name, static_cast<unsigned long long>(misses));
      ok = false;
    } else {
      std::printf("  measured-window pool-miss: 0 (hot path is"
                  " allocation-free)\n");
    }
    std::printf("\n");

    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"name\": \"%s\", \"warmup\": %llu, \"cycles\": %llu,"
        " \"dense_wall_ms\": %.3f, \"event_wall_ms\": %.3f,"
        " \"dense_ns_per_cycle\": %.3f, \"event_ns_per_cycle\": %.3f,"
        " \"stats_match\": %s,"
        " \"cache\": {\"hits\": %llu, \"misses\": %llu,"
        " \"hit_rate\": %.4f, \"off_ns_per_cycle\": %.3f,"
        " \"speedup_vs_off\": %.3f, \"identical\": %s},"
        " \"alloc\": {\"dense_pool_hit\": %llu, \"dense_pool_miss\": %llu,"
        " \"event_pool_hit\": %llu, \"event_pool_miss\": %llu,"
        " \"bytes_reused\": %llu, \"live_high_watermark\": %llu}}",
        first ? "" : ",", name,
        static_cast<unsigned long long>(sc.warmup_cycles),
        static_cast<unsigned long long>(sc.budget_cycles), dense.wall_ms,
        event.wall_ms, dense.ns_per_cycle, event.ns_per_cycle,
        kernels_match ? "true" : "false",
        static_cast<unsigned long long>(event.cache_hits),
        static_cast<unsigned long long>(event.cache_misses), hit_rate,
        off.ns_per_cycle, cache_speedup,
        cache_identical ? "true" : "false",
        static_cast<unsigned long long>(dense.pool_hit),
        static_cast<unsigned long long>(dense.pool_miss),
        static_cast<unsigned long long>(event.pool_hit),
        static_cast<unsigned long long>(event.pool_miss),
        static_cast<unsigned long long>(dense.bytes_reused +
                                        event.bytes_reused),
        static_cast<unsigned long long>(event.live_high_watermark));
    json += buf;
    first = false;
  }

  char tail[64];
  std::snprintf(tail, sizeof(tail), "\n  ],\n  \"pass\": %s\n}\n",
                ok ? "true" : "false");
  json += tail;

  std::FILE* f = std::fopen("BENCH_hotpath.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_hotpath.json\n");
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
