// E2 — head-of-line blocking (§2.3.1): a slow offload used by a fraction
// of the traffic.  In the pipeline ("bump-in-the-wire") NIC every packet
// sits behind the slow offload's queue; in PANIC the RMT pipeline chains
// only the packets that need it, so unrelated traffic is unaffected.
//
// Workload: 10% of packets address UDP port 7777 (the slow offload, 2000
// cycles/packet); 90% are plain mice.  One TrafficSource per run feeds
// both architectures the same frames; we report the host-delivery latency
// of every delivered packet on each.
#include <cstdio>

#include "analysis/report.h"
#include "baselines/pipeline_nic.h"
#include "common/cli.h"
#include "common/rng.h"
#include "core/panic_nic.h"
#include "net/packet.h"
#include "workload/traffic_gen.h"

using namespace panic;
using namespace panic::analysis;

namespace {

constexpr std::uint16_t kSlowPort = 7777;
constexpr Cycles kSlowCycles = 2000;
constexpr double kSlowFraction = 0.10;
const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);

/// The offered load: `frames` frames of the mix, one every `gap` cycles;
/// a tenth of them go to the slow offload's port.
workload::TrafficSource mixed_source(RxPort* port, double gap,
                                     std::uint64_t frames) {
  workload::TrafficConfig tcfg;
  tcfg.mean_gap_cycles = gap;
  tcfg.max_frames = frames;
  return workload::TrafficSource(
      "gen", port,
      [](Rng& rng, std::uint64_t seq, std::vector<std::uint8_t>& out) {
        const bool slow = rng.bernoulli(kSlowFraction);
        out = frames::min_udp(kClient, kServer,
                              static_cast<std::uint16_t>(40000 + seq % 512),
                              slow ? kSlowPort : 80);
      },
      tcfg);
}

struct Result {
  telemetry::MetricValue latency;  // every delivered packet's
  std::uint64_t delivered = 0;
};

/// Cycles a run may take: the offered window plus a generous drain.
Cycles budget(double gap, std::uint64_t frames) {
  return static_cast<Cycles>(gap * static_cast<double>(frames)) + 3000000;
}

Result run_pipeline(double gap, std::uint64_t frames, SimMode mode) {
  Simulator sim(Frequency::megahertz(500), mode);
  baselines::PipelineNicConfig pcfg;
  pcfg.dma.base_latency = 20;  // match PANIC's host path
  baselines::PipelineNic nic(
      "pipe", {baselines::slow_offload_spec(kSlowCycles, kSlowPort)}, pcfg,
      sim);
  workload::TrafficSource src = mixed_source(&nic, gap, frames);
  sim.add(&src);

  auto& m = sim.telemetry().metrics();
  const auto& delivered = m.counter("baseline.pipe.delivered");
  const auto& dropped = m.counter("baseline.pipe.dropped");
  sim.run_until([&] { return delivered + dropped >= frames; },
                budget(gap, frames));
  return {sim.snapshot().at("baseline.pipe.host_latency"), delivered};
}

Result run_panic(double gap, std::uint64_t frames, SimMode mode) {
  Simulator sim(Frequency::megahertz(500), mode);
  core::PanicConfig cfg;
  cfg.mesh.k = 4;
  cfg.aux_engines = 1;
  cfg.aux_fixed_cycles = kSlowCycles;
  cfg.dma.base_latency = 20;  // fast host path: the offload is the only
                              // bottleneck in this experiment
  // Route packets to the slow offload's port (kSlowPort) through the slow
  // aux engine; others straight to the host (the default program entry).
  // The stage runs after "classify" and overrides its chain.
  cfg.program = R"(
    stage slow_select {
      table slow_port exact(l4.dport) {
        7777 -> clear_chain, chain(aux0, dma);
      }
    }
  )";
  core::PanicNic nic(cfg, sim);
  workload::TrafficSource src = mixed_source(&nic.eth_port(0), gap, frames);
  sim.add(&src);

  // Live counter handles: cheap to poll from the run_until predicate
  // (no snapshot materialisation per call).
  auto& m = sim.telemetry().metrics();
  const auto& to_host = m.counter("engine.dma.packets_to_host");
  const auto& dma_drops = m.counter("engine.dma.queue.dropped");
  const auto& aux_drops = m.counter("engine.aux0.queue.dropped");
  sim.run_until(
      [&] { return to_host + dma_drops + aux_drops >= frames; },
      budget(gap, frames));
  return {sim.snapshot().at("engine.dma.host_latency"), to_host};
}

void add_row(Report& report, const char* architecture, double gap,
             const Result& r) {
  const auto cell = [](std::uint64_t v) {
    return strf("%llu", static_cast<unsigned long long>(v));
  };
  report.add_row({architecture, strf("%.0f cyc", gap), cell(r.delivered),
                  cell(r.latency.p50), cell(r.latency.p90),
                  cell(r.latency.p99), cell(r.latency.max)});
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("bench_hol_blocking", "head-of-line blocking across engine queues");
  args.parse(argc, argv);
  std::printf("PANIC reproduction — E2: HOL blocking (pipeline vs PANIC)\n");
  std::printf("10%% of packets need a %llu-cycle offload; latencies below\n"
              "are for ALL delivered packets (the slow 10%% dominate the\n"
              "tail in both designs; the pipeline design drags the p50 of\n"
              "everyone else up with it).\n",
              static_cast<unsigned long long>(kSlowCycles));

  Report report({"Architecture", "offered gap", "delivered", "p50", "p90",
                 "p99", "max"});

  for (double gap : {400.0, 150.0, 75.0}) {
    const std::uint64_t frames = 2000;

    add_row(report, "pipeline (bump-in-wire)", gap,
            run_pipeline(gap, frames, args.sim_mode()));
    add_row(report, "PANIC", gap, run_panic(gap, frames, args.sim_mode()));
  }
  report.print("Host-delivery latency (cycles @500MHz; 2 cyc = 4 ns)");

  std::printf(
      "\nShape check: as offered load rises, the pipeline NIC's p50/p90\n"
      "explode (every packet queues behind the slow offload) while PANIC's\n"
      "p50 stays near the unloaded path latency — only the 10%% slow\n"
      "packets (p90+) pay the offload cost.\n");
  return 0;
}
