// E6 — lightweight lookup tables vs per-hop RMT traversal (§3.1.2).
//
// PANIC's RMT pipeline computes the WHOLE chain in one pass and stamps it
// as a lightweight header; engines forward hop-to-hop without re-entering
// the pipeline.  The ablation ("no lookup tables") re-enters the pipeline
// after every engine, which the pipeline supports here by walking the IP
// TTL field: each pass matches the current TTL, pushes one hop, and
// decrements the TTL (deparsed back into the packet).  The measured RMT
// passes/packet and the saturation throughput show why the paper needs
// the lookup tables: pipeline capacity divides by passes-per-packet.
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

const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);
constexpr int kInitialTtl = 64;

core::PanicConfig base_config(int chain_len) {
  core::PanicConfig cfg;
  cfg.mesh.k = 5;
  cfg.mesh.channel_bits = 256;  // NoC generously provisioned
  cfg.aux_engines = chain_len;
  cfg.aux_fixed_cycles = 1;
  cfg.dma.base_latency = 0;  // ~1-cycle DMA so the pipeline is the limit
  cfg.dma.bytes_per_cycle = 256.0;
  cfg.rmt_input_queue = 8192;
  return cfg;
}

/// Mode A: full chain in one pass (PANIC with lightweight lookup tables).
std::string chained_program(int chain_len) {
  std::string hops;
  for (int i = 0; i < chain_len; ++i) {
    hops += "aux" + std::to_string(i) + ", ";
  }
  return "stage chain {\n"
         "  table chain ternary(meta.msg_kind) {\n"
         "    0 prio 1 -> clear_chain, chain(" + hops + "dma);\n"
         "  }\n"
         "}\n";
}

/// Mode B: one hop per pass — each pass pushes the next engine only and
/// decrements the TTL (mod 256); engines default-route back to the RMT
/// pipeline.
std::string per_hop_program(int chain_len) {
  std::string entries;
  for (int i = 0; i < chain_len; ++i) {
    entries += "    " + std::to_string(kInitialTtl - i) +
               " -> clear_chain, chain(aux" + std::to_string(i) +
               "), set_expr(ipv4.ttl, (ipv4.ttl + 255) & 255);\n";
  }
  entries += "    " + std::to_string(kInitialTtl - chain_len) +
             " -> clear_chain, chain(dma);\n";
  return "stage ttl_walk {\n"
         "  table ttl_walk exact(ipv4.ttl) {\n" + entries + "  }\n"
         "}\n";
}

struct ModeResult {
  double passes_per_packet;
  std::uint64_t mean_latency;
};

/// Light load so queues never drop: the passes/packet and added latency
/// are measured clean, and pipeline capacity follows from the F*P law.
ModeResult run(bool per_hop, int chain_len, SimMode mode) {
  auto cfg = base_config(chain_len);
  cfg.program =
      per_hop ? per_hop_program(chain_len) : chained_program(chain_len);
  Simulator sim(Frequency::megahertz(500), mode);
  core::PanicNic nic(cfg, sim);

  workload::TrafficConfig tcfg;
  tcfg.mean_gap_cycles = 50.0;
  tcfg.max_frames = 1000;
  workload::TrafficSource src(
      "gen", &nic.eth_port(0),
      workload::make_min_frame_filler(kClient, kServer), tcfg);
  sim.add(&src);

  const auto& to_host =
      sim.telemetry().metrics().counter("engine.dma.packets_to_host");
  sim.run_until([&] { return to_host >= tcfg.max_frames; }, 1000000);

  const auto snap = sim.snapshot();
  ModeResult r;
  const auto delivered = snap.counter("engine.dma.packets_to_host");
  r.passes_per_packet =
      static_cast<double>(snap.sum("rmt.", ".processed")) /
      static_cast<double>(delivered ? delivered : 1);
  r.mean_latency =
      static_cast<std::uint64_t>(snap.at("engine.dma.host_latency").mean);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("bench_rmt_passes", "RMT pass counts per packet class");
  args.parse(argc, argv);
  std::printf(
      "PANIC reproduction — E6: RMT passes with/without lookup tables\n");

  Report report({"Chain len", "Mode", "RMT passes/pkt",
                 "mean latency (cyc)", "implied max pps (F*P=2x500MHz)"});
  for (int n : {1, 2, 4, 6}) {
    for (bool per_hop : {false, true}) {
      const auto r = run(per_hop, n, args.sim_mode());
      report.add_row(
          {strf("%d", n),
           per_hop ? "per-hop RMT re-entry (ablation)"
                   : "lightweight lookup tables (PANIC)",
           strf("%.2f", r.passes_per_packet),
           strf("%llu", static_cast<unsigned long long>(r.mean_latency)),
           strf("%.0fMpps", 1000.0 / r.passes_per_packet)});
    }
  }
  report.print("One heavyweight pass vs one pass per hop (light load)");

  std::printf(
      "\nShape check: with lookup tables every packet costs 1 pipeline\n"
      "pass regardless of chain length; without them it costs n+1 passes,\n"
      "dividing deliverable throughput accordingly and inflating latency\n"
      "(each re-entry adds pipeline latency + queueing) — the paper's\n"
      "argument for distributing the logical switch (Sec 3.1.2).\n");
  return 0;
}
