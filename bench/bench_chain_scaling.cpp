// E5 — offload-chain length vs sustainable throughput (§4.2, Table 3).
// Packets are chained through n pass-through engines before reaching the
// host.  Each chain hop is one more mesh traversal, so beyond a knee the
// on-chip network saturates and delivered throughput falls below offered.
// Wider channels (the paper's "Bit Width" column) push the knee out.
//
// Each design point is expressed as a Scenario — the same schema
// `panic_run` executes — built programmatically (the chain program is a
// p4lite `program` block parameterized by chain length) and run through
// ScenarioRun.  Every point is round-tripped through the scenario text
// format first, so the sweep doubles as a serialization check and any
// point can be dumped and re-run standalone with `panic_run`.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/report.h"
#include "common/cli.h"
#include "scenario/runner.h"

using namespace panic;
using namespace panic::analysis;

namespace {

struct RunResult {
  double delivered_ratio;
  std::uint64_t p99;
};

/// One design point of the sweep as a self-contained scenario.
scenario::Scenario make_point(std::uint32_t channel_bits, int chain_len,
                              double gap, std::uint64_t frames) {
  scenario::Scenario s;
  s.name = strf("chain_scaling_w%u_n%d", channel_bits, chain_len);
  s.mesh_k = 5;
  s.channel_bits = static_cast<int>(channel_bits);
  s.aux_engines = 8;
  s.aux_fixed_cycles = 1;  // pass-through: the NoC is the resource
  s.dma_base_latency = 2;  // fast host path so DMA never dominates
  s.dma_bytes_per_cycle = 256.0;
  // Fixed horizon: just enough to emit every frame plus a short drain.
  // A chain the mesh can sustain delivers ~everything inside it; an
  // unsustainable one leaves a backlog (and queue drops).
  s.budget_cycles =
      static_cast<Cycles>(gap * static_cast<double>(frames)) + 5000;

  scenario::WorkloadSpec w;
  w.name = "gen";
  w.port = 0;
  w.kind = scenario::WorkloadSpec::Kind::kMinFrame;
  w.pattern = workload::ArrivalPattern::kConstantRate;
  w.mean_gap_cycles = gap;
  w.max_frames = frames;
  s.workloads.push_back(w);

  // The chain program: every packet walks n pass-through aux engines,
  // then DMA.  aux<N>/dma resolve through the topology symbol table.
  std::string hops;
  for (int i = 0; i < chain_len; ++i) hops += strf("aux%d, ", i);
  s.program = strf(
      "stage chain {\n"
      "  table chain ternary(meta.msg_kind) {\n"
      "    0 prio 1 -> clear_chain, chain(%sdma);\n"
      "  }\n"
      "}\n",
      hops.c_str());
  return s;
}

RunResult run(const scenario::Scenario& s, SimMode mode) {
  // Round-trip through the text format: the sweep's design points must be
  // expressible (and re-parseable) as ordinary scenario files.
  std::string error;
  const auto reparsed = scenario::Scenario::parse(s.to_string(), &error);
  if (!reparsed.has_value() || reparsed->to_string() != s.to_string()) {
    std::fprintf(stderr, "scenario round-trip failed for %s: %s\n",
                 s.name.c_str(), error.c_str());
    std::exit(EXIT_FAILURE);
  }

  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(*reparsed, opts);
  run.run_all();

  const auto snap = run.sim().snapshot();
  RunResult r;
  r.delivered_ratio =
      static_cast<double>(snap.counter("engine.dma.packets_to_host")) /
      static_cast<double>(s.workloads[0].max_frames);
  r.p99 = static_cast<std::uint64_t>(snap.at("engine.dma.host_latency").p99);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("bench_chain_scaling",
                             "latency/throughput vs offload-chain length");
  args.parse(argc, argv);
  std::printf(
      "PANIC reproduction — E5: chain length vs delivered throughput\n");
  const double gap = 12.0;  // ~83 Mpps offered at 500 MHz (~56 Gbps wire)
  const std::uint64_t frames = 4000;
  std::printf("Offered: one 64B frame every %.0f cycles; chain of n\n"
              "pass-through engines before the host.\n",
              gap);

  Report report({"Width", "Chain len", "Delivered/Offered", "p99 (cyc)"});
  for (std::uint32_t width : {64u, 128u}) {
    for (int n : {0, 1, 2, 3, 4, 6, 8}) {
      const auto r = run(make_point(width, n, gap, frames), args.sim_mode());
      report.add_row({strf("%u-bit", width), strf("%d", n),
                      strf("%.3f", r.delivered_ratio),
                      strf("%llu", static_cast<unsigned long long>(r.p99))});
    }
  }
  report.print("Delivered fraction vs chain length (k=5 mesh)");

  std::printf(
      "\nShape check (Table 3): the 64-bit mesh sustains only short chains\n"
      "at this rate before delivery collapses and p99 explodes; doubling\n"
      "the channel width roughly doubles the sustainable chain length.\n");
  return 0;
}
