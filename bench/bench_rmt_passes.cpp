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
constexpr std::uint64_t kInitialTtl = 64;

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
void customize_chained(rmt::RmtProgram& program,
                       const core::PanicTopology& topo, int chain_len) {
  auto& stage = program.add_stage("chain");
  rmt::MatchTable t("chain", rmt::MatchKind::kTernary,
                    {rmt::Field::kMetaMsgKind});
  rmt::Action chain("full_chain");
  chain.clear_chain();
  for (int i = 0; i < chain_len; ++i) {
    chain.push_hop(topo.aux[static_cast<std::size_t>(i)].value);
  }
  chain.push_hop(topo.dma.value);
  t.add_ternary(0, ~0ull, 1, std::move(chain));
  stage.tables.push_back(std::move(t));
}

/// Mode B: one hop per pass — each pass pushes the next engine only and
/// decrements the TTL; engines default-route back to the RMT pipeline.
void customize_per_hop(rmt::RmtProgram& program,
                       const core::PanicTopology& topo, int chain_len) {
  auto& stage = program.add_stage("ttl_walk");
  rmt::MatchTable t("ttl_walk", rmt::MatchKind::kExact,
                    {rmt::Field::kIpTtl});
  for (int i = 0; i < chain_len; ++i) {
    rmt::Action step("step" + std::to_string(i));
    step.clear_chain()
        .push_hop(topo.aux[static_cast<std::size_t>(i)].value)
        .add_imm(rmt::Field::kIpTtl, 0xFF)  // TTL -= 1 (mod 256)
        .and_imm(rmt::Field::kIpTtl, 0xFF);
    t.add_exact(kInitialTtl - static_cast<std::uint64_t>(i),
                std::move(step));
  }
  rmt::Action finish("to_host");
  finish.clear_chain().push_hop(topo.dma.value);
  t.add_exact(kInitialTtl - static_cast<std::uint64_t>(chain_len),
              std::move(finish));
  stage.tables.push_back(std::move(t));
}

struct ModeResult {
  double passes_per_packet;
  std::uint64_t mean_latency;
};

/// Light load so queues never drop: the passes/packet and added latency
/// are measured clean, and pipeline capacity follows from the F*P law.
ModeResult run(bool per_hop, int chain_len) {
  auto cfg = base_config(chain_len);
  cfg.customize_program = [=](rmt::RmtProgram& p,
                              const core::PanicTopology& t) {
    if (per_hop) {
      customize_per_hop(p, t, chain_len);
    } else {
      customize_chained(p, t, chain_len);
    }
  };
  Simulator sim(Frequency::megahertz(500), requested_sim_mode());
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
      const auto r = run(per_hop, n);
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
