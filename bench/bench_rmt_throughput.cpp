// E1 — the §4.2 RMT throughput law, measured: an RMT engine is fully
// pipelined and issues one message per cycle, so P parallel engines
// process P packets/cycle = F*P packets/second.  We drive 1 and 2 RMT
// engines at saturation on a wide-channel mesh (so the NoC is not the
// bottleneck) and check the measured packets/cycle.
#include <cstdio>

#include "analysis/report.h"
#include "common/cli.h"
#include "core/panic_nic.h"
#include "net/packet.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

using namespace panic;
using namespace panic::analysis;

namespace {

/// Measured aggregate RMT passes/cycle with `rmt_engines` engines fed at
/// saturation from `ports` Ethernet ports.
double measure_rmt_rate(int rmt_engines, int ports, SimMode mode) {
  Simulator sim(Frequency::megahertz(500), mode);
  core::PanicConfig cfg;
  cfg.mesh.k = 4;
  // 1024-bit channels: a min-size frame is a single flit, so the mesh
  // carries one message per cycle per link and the pipelines saturate.
  cfg.mesh.channel_bits = 1024;
  cfg.eth_ports = ports;
  cfg.rmt_engines = rmt_engines;
  cfg.rmt_input_queue = 4096;
  core::PanicNic nic(cfg, sim);

  std::vector<std::unique_ptr<workload::TrafficSource>> sources;
  for (int p = 0; p < ports; ++p) {
    workload::TrafficConfig tcfg;
    tcfg.mean_gap_cycles = 1.0;  // one frame per cycle per port: saturation
    tcfg.seed = static_cast<std::uint64_t>(p) + 1;
    sources.push_back(std::make_unique<workload::TrafficSource>(
        "gen" + std::to_string(p), &nic.eth_port(p),
        workload::make_min_frame_filler(Ipv4Addr(10, 1, 0, 2),
                                        Ipv4Addr(10, 0, 0, 1)),
        tcfg));
    sim.add(sources.back().get());
  }

  const Cycles warmup = 2000, measure = 20000;
  sim.run(warmup);
  const auto before = sim.snapshot().sum("rmt.", ".processed");
  sim.run(measure);
  return (sim.snapshot().sum("rmt.", ".processed") - before) /
         static_cast<double>(measure);
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("bench_rmt_throughput", "RMT pipeline throughput");
  args.parse(argc, argv);
  std::printf("PANIC reproduction — E1: RMT pipeline throughput = F x P\n");

  Report report({"RMT engines (P)", "Feeding ports", "Measured pkt/cycle",
                 "Model (P)", "pps @500MHz"});
  for (const auto& [engines, ports] :
       std::vector<std::pair<int, int>>{{1, 2}, {2, 2}, {2, 3}}) {
    const double rate = measure_rmt_rate(engines, ports, args.sim_mode());
    const double expect = std::min(static_cast<double>(engines),
                                   static_cast<double>(ports));
    report.add_row({strf("%d", engines), strf("%d", ports),
                    strf("%.3f", rate), strf("%.0f", expect),
                    strf("%.0fMpps", rate * 500.0)});
  }
  report.print("Measured pipeline issue rate at saturation");

  std::printf(
      "\nShape check: doubling P doubles throughput; with P=2 the measured\n"
      "rate x 500MHz should be ~1000Mpps, matching the paper's claim that\n"
      "two 500MHz pipelines process 1000Mpps >= the 600Mpps a 2-port\n"
      "100GbE NIC needs (Table 2).\n");
  return 0;
}
