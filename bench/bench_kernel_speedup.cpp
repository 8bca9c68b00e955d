// Kernel benchmark: wall-clock cost per simulated cycle across the two
// kernels — dense ticking (kStrictTick) and the quiescence-aware event
// kernel (kEventDriven).
//
// Workload shapes on full PANIC NICs:
//   * idle-heavy       — short line-rate bursts separated by long silent
//     gaps (the bursty/interactive shape of real NIC traffic); the event
//     kernel should win big here by fast-forwarding the gaps;
//   * saturated        — continuous near-line-rate load on a 4x4 mesh;
//     nothing ever sleeps, so this pins the event kernel's bookkeeping
//     overhead (wake-coalescing keeps it >= 1x, i.e. no regression);
//   * saturated_16x16  — the same shape on a 16x16 mesh with 100+ engines.
//
// Both modes run identical scenarios and their statistics are
// cross-checked (the kernels are cycle-identical by contract), so every
// speedup is measured on provably-equivalent simulations.  Results go to
// stdout and, machine-readable, to BENCH_kernel_speedup.json.
//
// `--smoke` shrinks the horizons, enables per-message tracing, and writes
// BENCH_kernel_speedup.trace.json (Chrome trace_event format) — used by CI
// to validate the trace export end to end.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.h"
#include "core/panic_nic.h"
#include "net/message_pool.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

using namespace panic;

namespace {

bool g_smoke = false;

const Ipv4Addr kBulkClient(10, 2, 0, 9);
const Ipv4Addr kInterClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);

struct RunResult {
  double wall_ms = 0.0;
  double ns_per_cycle = 0.0;
  std::uint64_t component_ticks = 0;
  std::uint64_t fast_forwarded = 0;
  // Stats for the cross-check between modes.
  std::uint64_t delivered = 0;
  std::uint64_t flits = 0;
  std::uint64_t generated = 0;
  // Allocator pressure over the run (message-pool stat deltas).
  std::uint64_t pool_hit = 0;
  std::uint64_t pool_miss = 0;
  std::uint64_t bytes_reused = 0;
};

struct Scenario {
  const char* name;
  Cycles on_cycles;
  Cycles off_cycles;
  double gap;
  Cycles cycles;
  int mesh_k = 4;
  int eth_ports = 2;
  int rmt_engines = 2;
  int aux_engines = 0;
};

RunResult run_scenario(const Scenario& sc, SimMode mode) {
  Simulator sim(Frequency::megahertz(500), mode);
  if (g_smoke) sim.telemetry().tracer().enable();
  core::PanicConfig cfg;
  cfg.mesh.k = sc.mesh_k;
  cfg.eth_ports = sc.eth_ports;
  cfg.rmt_engines = sc.rmt_engines;
  cfg.aux_engines = sc.aux_engines;
  cfg.tenant_slacks = {{1, 10}, {2, 100000}};
  core::PanicNic nic(cfg, sim);

  workload::TrafficConfig bulk_cfg;
  bulk_cfg.pattern = workload::ArrivalPattern::kOnOff;
  bulk_cfg.mean_gap_cycles = sc.gap;
  bulk_cfg.on_cycles = sc.on_cycles;
  bulk_cfg.off_cycles = sc.off_cycles;
  bulk_cfg.tenant = TenantId{2};
  bulk_cfg.seed = 99;
  workload::TrafficSource bulk(
      "bulk", &nic.eth_port(1),
      workload::make_udp_factory(kBulkClient, kServer, 1500), bulk_cfg);
  sim.add(&bulk);

  workload::TrafficConfig inter_cfg;
  inter_cfg.pattern = workload::ArrivalPattern::kOnOff;
  inter_cfg.mean_gap_cycles = sc.gap;
  inter_cfg.on_cycles = sc.on_cycles;
  inter_cfg.off_cycles = sc.off_cycles;
  inter_cfg.tenant = TenantId{1};
  inter_cfg.seed = 7;
  workload::TrafficSource inter(
      "interactive", &nic.eth_port(0),
      workload::make_min_frame_factory(kInterClient, kServer), inter_cfg);
  sim.add(&inter);

  const auto pool_before = MessagePool::instance().stats();
  const auto start = std::chrono::steady_clock::now();
  sim.run(sc.cycles);
  const auto stop = std::chrono::steady_clock::now();
  const auto pool_after = MessagePool::instance().stats();

  const auto snap = sim.snapshot();
  RunResult r;
  r.pool_hit = pool_after.pool_hits - pool_before.pool_hits;
  r.pool_miss = pool_after.pool_misses - pool_before.pool_misses;
  r.bytes_reused = pool_after.bytes_reused - pool_before.bytes_reused;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  r.ns_per_cycle = r.wall_ms * 1e6 / static_cast<double>(sc.cycles);
  r.component_ticks = snap.counter("kernel.component_ticks");
  r.fast_forwarded = snap.counter("kernel.fast_forwarded_cycles");
  r.delivered = snap.counter("engine.dma.packets_to_host");
  r.flits = static_cast<std::uint64_t>(snap.value("noc.flits_routed"));
  r.generated =
      static_cast<std::uint64_t>(snap.sum("workload.", ".generated"));

  if (g_smoke) {
    sim.telemetry().tracer().write_chrome_json(
        "BENCH_kernel_speedup.trace.json", Frequency::megahertz(500));
  }
  return r;
}

/// Best-of-N wall clock (minimum estimates the true cost under scheduler
/// noise; statistics are identical across repetitions by determinism, so
/// any repetition's stats are valid for the cross-checks).
RunResult run_best(const Scenario& sc, SimMode mode) {
  const int reps = g_smoke ? 1 : 2;
  RunResult best = run_scenario(sc, mode);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_scenario(sc, mode);
    if (r.wall_ms < best.wall_ms) best = std::move(r);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_kernel_speedup",
                      "dense vs event kernel wall-clock");
  args.flag("smoke", "divide horizons by 20 for CI", &g_smoke);
  args.parse(argc, argv);
  const std::uint64_t seed = args.seed();

  // ~2% duty cycle for the idle-heavy shape; the saturated shapes never
  // pause (off=0 keeps every burst back-to-back).  The 16x16 scenario has
  // 100+ engines (8 eth + 8 RMT + 13 fixed + 85 aux).
  Scenario scenarios[] = {
      {"idle_heavy", 1000, 49000, 15.0, 2000000},
      {"saturated", 50000, 0, 15.0, 500000},
      {"saturated_16x16", 50000, 0, 15.0, 100000, 16, 8, 8, 85},
  };
  if (g_smoke) {
    for (Scenario& sc : scenarios) sc.cycles /= 20;
  }

  std::string json = "{\n  \"bench\": \"kernel_speedup\",\n  \"seed\": " +
                     std::to_string(seed) + ",\n  \"scenarios\": [";
  bool first = true;
  bool ok = true;

  for (const Scenario& sc : scenarios) {
    const RunResult dense = run_best(sc, SimMode::kStrictTick);
    const RunResult event = run_best(sc, SimMode::kEventDriven);
    const double speedup = dense.wall_ms / event.wall_ms;

    // The two kernels must agree — a speedup on a diverging simulation
    // would be meaningless.
    if (dense.delivered != event.delivered || dense.flits != event.flits ||
        dense.generated != event.generated) {
      std::fprintf(stderr, "FAIL %s: dense/event stats diverge\n", sc.name);
      ok = false;
    }

    std::printf("--- %s (%llu cycles, %llu packets) ---\n", sc.name,
                static_cast<unsigned long long>(sc.cycles),
                static_cast<unsigned long long>(event.delivered));
    std::printf("  dense:  %8.1f ms  %7.2f ns/cycle  %12llu ticks\n",
                dense.wall_ms, dense.ns_per_cycle,
                static_cast<unsigned long long>(dense.component_ticks));
    std::printf("  event:  %8.1f ms  %7.2f ns/cycle  %12llu ticks"
                "  (%llu cycles fast-forwarded)\n",
                event.wall_ms, event.ns_per_cycle,
                static_cast<unsigned long long>(event.component_ticks),
                static_cast<unsigned long long>(event.fast_forwarded));
    std::printf("  speedup: %.2fx\n\n", speedup);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"name\": \"%s\", \"cycles\": %llu,"
        " \"dense_wall_ms\": %.3f, \"event_wall_ms\": %.3f,"
        " \"dense_ns_per_cycle\": %.3f, \"event_ns_per_cycle\": %.3f,"
        " \"dense_ticks\": %llu, \"event_ticks\": %llu,"
        " \"fast_forwarded_cycles\": %llu, \"speedup\": %.3f,"
        " \"stats_match\": %s,"
        " \"alloc\": {\"pool_hit\": %llu, \"pool_miss\": %llu,"
        " \"bytes_reused\": %llu}}",
        first ? "" : ",", sc.name,
        static_cast<unsigned long long>(sc.cycles), dense.wall_ms,
        event.wall_ms, dense.ns_per_cycle, event.ns_per_cycle,
        static_cast<unsigned long long>(dense.component_ticks),
        static_cast<unsigned long long>(event.component_ticks),
        static_cast<unsigned long long>(event.fast_forwarded), speedup,
        dense.delivered == event.delivered ? "true" : "false",
        static_cast<unsigned long long>(dense.pool_hit + event.pool_hit),
        static_cast<unsigned long long>(dense.pool_miss + event.pool_miss),
        static_cast<unsigned long long>(dense.bytes_reused +
                                        event.bytes_reused));
    json += buf;

    first = false;
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_kernel_speedup.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_kernel_speedup.json\n");
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
