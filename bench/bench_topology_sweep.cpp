// §6 open question: "What is the best on-chip topology?"  A sweep over
// mesh sizes: analytic capacity/bisection vs NIC-level sustained
// throughput and unloaded host latency.  Bigger meshes buy bandwidth
// (capacity grows with k) at the cost of hop latency (diameter grows
// with k) and area (tiles grow with k^2) — the trade the paper leaves
// open.
//
// Each design point is a Scenario — the same schema `panic_run`
// executes — built programmatically and round-tripped through the
// scenario text format before running, so the sweep doubles as a
// serialization check and any point can be dumped and re-run standalone.
// The chain of pass-through aux engines scales with the mesh
// (min(k^2 - 14, 2k) hops: 14 tiles go to the fixed engines, 2 ports and
// 1 RMT engine), mirroring the analytic "chain length" column: a k x k
// mesh earns its area only if it sustains a proportionally longer chain.
// k=3 is out of the sweep: the fixed engines plus ports/RMT don't fit 9
// tiles, so it is not a buildable NIC design point (the raw-mesh capacity
// model still covers it).
//
// The routing ablation reruns the k=6 point with `routing westfirst`
// — the scenario language's routing axis — against deterministic XY.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/report.h"
#include "common/cli.h"
#include "core/panic_config.h"
#include "noc/mesh_model.h"
#include "scenario/runner.h"

using namespace panic;
using namespace panic::analysis;

namespace {

struct SweepResult {
  double delivered_ratio;    // delivered / offered over the whole run
  double unloaded_latency;   // single-frame ingress->host, cycles
};

constexpr int kEthPorts = 2;
constexpr int kRmtEngines = 1;

/// Chain depth for a k x k mesh: every free tile up to 2k hops, so the
/// offered chain grows with the mesh the way the analytic chain-length
/// column says it should.
int chain_for(int k) {
  const int taken =
      static_cast<int>(core::kFixedEngines.size()) + kEthPorts + kRmtEngines;
  return std::min(k * k - taken, 2 * k);
}

/// One design point of the sweep as a self-contained scenario.
scenario::Scenario make_point(int k, noc::RoutingAlgo routing, double gap,
                              std::uint64_t frames) {
  const int chain = chain_for(k);
  scenario::Scenario s;
  s.name = strf("topology_sweep_k%d%s", k,
                routing == noc::RoutingAlgo::kWestFirst ? "_wf" : "");
  s.mesh_k = k;
  s.routing = routing;
  s.eth_ports = kEthPorts;
  s.rmt_engines = kRmtEngines;
  s.aux_engines = chain;
  s.aux_fixed_cycles = 1;  // pass-through: the NoC is the resource
  s.dma_base_latency = 2;  // fast host path so DMA never dominates
  s.dma_bytes_per_cycle = 256.0;
  s.budget_cycles =
      static_cast<Cycles>(gap * static_cast<double>(frames)) + 10000;

  for (int port = 0; port < s.eth_ports; ++port) {
    scenario::WorkloadSpec w;
    w.name = strf("gen%d", port);
    w.port = port;
    w.kind = scenario::WorkloadSpec::Kind::kMinFrame;
    w.pattern = workload::ArrivalPattern::kConstantRate;
    w.mean_gap_cycles = gap;
    w.max_frames = frames;
    w.seed = static_cast<std::uint64_t>(port + 1);
    s.workloads.push_back(w);
  }

  // Every packet walks the full aux chain before the host; aux<N>/dma
  // resolve through the topology symbol table.
  std::string hops;
  for (int i = 0; i < chain; ++i) hops += strf("aux%d, ", i);
  s.program = strf(
      "stage sweep_chain {\n"
      "  table chain ternary(meta.msg_kind) {\n"
      "    0 prio 1 -> clear_chain, chain(%sdma);\n"
      "  }\n"
      "}\n",
      hops.c_str());
  return s;
}

/// Round-trips the point through the text format, then returns it.
scenario::Scenario round_trip(const scenario::Scenario& s) {
  std::string error;
  const auto reparsed = scenario::Scenario::parse(s.to_string(), &error);
  if (!reparsed.has_value() || reparsed->to_string() != s.to_string()) {
    std::fprintf(stderr, "scenario round-trip failed for %s: %s\n",
                 s.name.c_str(), error.c_str());
    std::exit(EXIT_FAILURE);
  }
  return *reparsed;
}

double run_delivered_ratio(const scenario::Scenario& point, SimMode mode) {
  const scenario::Scenario s = round_trip(point);
  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(s, opts);
  run.run_all();
  std::uint64_t offered = 0;
  for (const auto& w : s.workloads) offered += w.max_frames;
  const auto snap = run.sim().snapshot();
  return static_cast<double>(snap.counter("engine.dma.packets_to_host")) /
         static_cast<double>(offered);
}

double run_unloaded_latency(scenario::Scenario point, SimMode mode) {
  // Same topology, one lonely frame: engine.dma.host_latency is the
  // corner-to-corner figure (wire -> RMT -> full chain -> host).
  point.name += "_unloaded";
  point.workloads.resize(1);
  point.workloads[0].max_frames = 1;
  point.budget_cycles = 20000;
  const scenario::Scenario s = round_trip(point);
  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(s, opts);
  run.run_all();
  return run.sim().snapshot().at("engine.dma.host_latency").mean;
}

SweepResult run(int k, noc::RoutingAlgo routing, double gap,
                std::uint64_t frames, SimMode mode) {
  SweepResult r;
  const auto point = make_point(k, routing, gap, frames);
  r.delivered_ratio = run_delivered_ratio(point, mode);
  r.unloaded_latency = run_unloaded_latency(point, mode);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("bench_topology_sweep",
                             "mesh size / port count sweep");
  args.parse(argc, argv);
  std::printf("PANIC reproduction — on-chip topology sweep (Sec 6)\n");
  std::printf(
      "Min-size frames, 128-bit channels, 2 ports, pass-through chain of\n"
      "min(k^2-14, 2k) aux engines; every design point is a round-tripped\n"
      "scenario.  (k=3 omitted: %zu fixed engines, %d ports and %d RMT\n"
      "engine don't fit 9 tiles.)\n",
      core::kFixedEngines.size(), kEthPorts, kRmtEngines);

  const double gap = 12.0;     // per port: ~83 Mpps aggregate at 500 MHz
  const std::uint64_t frames = 2000;

  Report report({"Topo", "Tiles", "Capacity 4bk", "Chain aux",
                 "Delivered/Offered", "Unloaded latency (cyc)",
                 "Chain len @100Gx2"});
  for (int k : {4, 5, 6, 8, 10}) {
    const std::uint32_t width = 128;
    const auto r =
        run(k, noc::RoutingAlgo::kXY, gap, frames, args.sim_mode());
    noc::MeshModelInput in;
    in.k = k;
    in.channel_bits = width;
    in.line_rate = DataRate::gbps(100);
    in.ports = 2;
    const auto model = noc::evaluate_mesh_model(in);
    report.add_row(
        {strf("%dx%d", k, k), strf("%d", k * k),
         strf("%.0f b/cyc", 4.0 * width * k), strf("%d", chain_for(k)),
         strf("%.3f", r.delivered_ratio), strf("%.0f", r.unloaded_latency),
         strf("%.2f", model.chain_length)});
  }
  report.print("Mesh size trade-off: bandwidth grows ~k, latency grows ~k");

  // Routing ablation: XY vs west-first adaptive on the 6x6 point.
  Report routing({"Routing", "Delivered/Offered", "Unloaded latency (cyc)"});
  for (auto algo : {noc::RoutingAlgo::kXY, noc::RoutingAlgo::kWestFirst}) {
    const auto r = run(6, algo, gap, frames, args.sim_mode());
    routing.add_row({algo == noc::RoutingAlgo::kXY ? "XY (deterministic)"
                                                   : "west-first (adaptive)",
                     strf("%.3f", r.delivered_ratio),
                     strf("%.0f", r.unloaded_latency)});
  }
  routing.print("Routing algorithm ablation (6x6, chained load)");

  std::printf(
      "\nShape check: capacity (and the sustainable chain length) grows\n"
      "linearly with k while unloaded latency also grows with k — the\n"
      "paper's Table 3 picks 6x6/8x8 as the sweet spots for 2-port NICs.\n");
  return 0;
}
