// Reproduces Table 3: bisection bandwidth and sustainable offload-chain
// length of the on-chip 2D mesh, analytically (exactly the paper's
// numbers), then validates the capacity model against the flit-level mesh
// simulator under uniform random traffic.
#include <cstdio>

#include "analysis/report.h"
#include "common/cli.h"
#include "common/rng.h"
#include "noc/mesh.h"
#include "noc/mesh_model.h"
#include "sim/simulator.h"

using namespace panic;
using namespace panic::analysis;

namespace {

/// Saturation throughput of a k x k mesh in bits/cycle under uniform
/// random traffic with `payload` byte messages.
double simulate_saturation(int k, std::uint32_t bits, std::size_t payload,
                           Cycles warmup, Cycles measure, SimMode mode) {
  Simulator sim(Frequency::megahertz(500), mode);
  noc::MeshConfig cfg;
  cfg.k = k;
  cfg.channel_bits = bits;
  noc::Mesh mesh(cfg, sim);
  Rng rng(42);

  std::uint64_t delivered_bits = 0;
  auto drive = [&](bool measuring) {
    for (int t = 0; t < mesh.tiles(); ++t) {
      const EngineId src{static_cast<std::uint16_t>(t)};
      while (mesh.ni(src).can_inject()) {
        EngineId dst;
        do {
          dst = EngineId{static_cast<std::uint16_t>(rng.uniform_int(
              0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
        } while (dst == src);
        auto msg = make_message();
        msg->data.resize(payload);
        mesh.ni(src).inject(std::move(msg), dst, sim.now());
      }
      while (auto msg = mesh.ni(src).try_receive(sim.now())) {
        if (measuring) delivered_bits += msg->wire_size() * 8;
      }
    }
  };
  for (Cycles c = 0; c < warmup; ++c) {
    drive(false);
    sim.step();
  }
  for (Cycles c = 0; c < measure; ++c) {
    drive(true);
    sim.step();
  }
  return static_cast<double>(delivered_bits) / static_cast<double>(measure);
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("bench_table3", "paper Table 3 reproduction");
  args.parse(argc, argv);
  std::printf("PANIC reproduction — Table 3 (mesh throughput / chain len)\n");

  Report report({"Line-rate", "Freq", "Bit Width", "Topo", "Bisec BW",
                 "Chain Len", "(paper)"});
  const char* paper[] = {"384Gbps 5.60", "512Gbps 8.80", "768Gbps 3.68",
                         "1024Gbps 6.24"};
  int i = 0;
  for (const auto& in : noc::table3_rows()) {
    const auto r = noc::evaluate_mesh_model(in);
    report.add_row({strf("%.0fGbps x%d", in.line_rate.gigabits_per_second(),
                         in.ports),
                    strf("%.0fMHz", in.freq.mhz()),
                    strf("%u", in.channel_bits),
                    strf("%dx%d Mesh", in.k, in.k),
                    strf("%.0fGbps", r.bisection_bw.gigabits_per_second()),
                    strf("%.2f", r.chain_length), paper[i++]});
  }
  report.print("Table 3 (analytical, matches the paper exactly)");

  // Validation: flit-level simulation vs the 4*b*k capacity bound.
  // Single-VC wormhole routers reach a fraction of the ideal capacity
  // (typically 40-70% for uniform traffic); the model is the bound the
  // paper's sizing uses.
  Report sim_report({"Topo", "Width", "Capacity 4bk (bits/cyc)",
                     "Simulated (bits/cyc)", "Fraction"});
  for (const auto& [k, bits] :
       std::vector<std::pair<int, std::uint32_t>>{{4, 64},
                                                  {6, 64},
                                                  {6, 128},
                                                  {8, 128}}) {
    const double cap = 4.0 * bits * k;
    const double got =
        simulate_saturation(k, bits, 64, 3000, 15000, args.sim_mode());
    sim_report.add_row({strf("%dx%d", k, k), strf("%u", bits),
                        strf("%.0f", cap), strf("%.0f", got),
                        strf("%.2f", got / cap)});
  }
  sim_report.print(
      "Flit-level mesh simulation vs analytic capacity (uniform traffic)");
  return 0;
}
