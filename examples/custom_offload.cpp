// Writing your own offload engine.
//
// PANIC's pitch (§3.1.1) is that ANY self-contained unit can be a tile:
// implement `Engine::service_time` + `Engine::process`, place it on the
// mesh, and steer traffic to it with one RMT table entry.  This example
// adds a flow-telemetry engine (per-flow packet/byte counters with a
// top-talker report) — something an RMT pipeline alone could not host at
// this fidelity (unbounded state, hash-map probing).
#include <cstdio>

#include <unordered_map>

#include "common/cli.h"
#include "core/panic_nic.h"
#include "net/packet.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

using namespace panic;

namespace {

/// A custom offload: counts packets/bytes per (src, dst, dport) flow.
class TelemetryEngine : public engines::Engine {
 public:
  TelemetryEngine(std::string name, noc::NetworkInterface* ni,
                  const engines::EngineConfig& config)
      : Engine(std::move(name), ni, config) {}

  struct FlowStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  const std::unordered_map<std::uint64_t, FlowStats>& flows() const {
    return flows_;
  }

 protected:
  Cycles service_time(const Message& msg) const override {
    (void)msg;
    return 4;  // hash + two counter updates
  }

  bool process(Message& msg, Cycle now) override {
    (void)now;
    if (const auto parsed = parse_frame(msg.data);
        parsed.has_value() && parsed->ipv4.has_value()) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(parsed->ipv4->src.value()) << 32) ^
          parsed->ipv4->dst.value() ^
          (parsed->udp ? parsed->udp->dst_port : 0);
      auto& stats = flows_[key];
      ++stats.packets;
      stats.bytes += msg.data.size();
    }
    return true;  // forward along the chain — telemetry is inline
  }

 private:
  std::unordered_map<std::uint64_t, FlowStats> flows_;
};

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("custom_offload", "attach a custom engine to a spare tile");
  args.parse(argc, argv);
  Simulator sim(Frequency::megahertz(500), args.sim_mode());

  core::PanicConfig config;
  config.mesh.k = 4;
  config.spare_tiles = 1;  // reserve a tile for our custom engine

  // Steer every packet (meta.msg_kind 0) through the telemetry tile
  // first: rewrite the default packet chain to [telemetry, dma].  The
  // first spare tile is named spare0 (PanicTopology::tile_names()).
  config.program =
      "stage telemetry {\n"
      "  table tap ternary(meta.msg_kind) {\n"
      "    0 prio 1 -> clear_chain, chain(spare0, dma);\n"
      "  }\n"
      "}\n";

  // Build the NIC, then attach our engine to the reserved tile.
  core::PanicNic nic(config, sim);
  const EngineId telemetry_tile = nic.topology().spare[0];
  engines::EngineConfig ecfg;
  TelemetryEngine telemetry("telemetry",
                            &nic.mesh().ni(telemetry_tile), ecfg);
  telemetry.lookup_table().set_default(nic.topology().dma);
  sim.add(&telemetry);

  // Traffic: three flows with different rates.
  const Ipv4Addr server(10, 0, 0, 1);
  std::vector<std::unique_ptr<workload::TrafficSource>> sources;
  int flow = 0;
  for (const auto& [octet, gap] :
       std::vector<std::pair<int, double>>{{2, 100.0}, {3, 300.0},
                                           {4, 1200.0}}) {
    workload::TrafficConfig tcfg;
    tcfg.mean_gap_cycles = gap;
    tcfg.max_frames = 0;
    tcfg.seed = static_cast<std::uint64_t>(octet);
    sources.push_back(std::make_unique<workload::TrafficSource>(
        "flow" + std::to_string(flow++), &nic.eth_port(0),
        workload::make_udp_filler(
            Ipv4Addr(10, 1, 0, static_cast<std::uint8_t>(octet)), server,
            256, static_cast<std::uint16_t>(7000 + octet)),
        tcfg));
    sim.add(sources.back().get());
  }

  sim.run(200000);

  std::printf("--- flow telemetry after %.0f us ---\n", sim.now_ns() / 1e3);
  std::printf("%-18s %10s %12s\n", "flow(hash)", "packets", "bytes");
  for (const auto& [key, stats] : telemetry.flows()) {
    std::printf("%016llx %10llu %12llu\n",
                static_cast<unsigned long long>(key),
                static_cast<unsigned long long>(stats.packets),
                static_cast<unsigned long long>(stats.bytes));
  }
  // The custom engine registered itself under engine.telemetry.* simply by
  // being added to the simulator — no extra code in TelemetryEngine.
  const auto snap = sim.snapshot();
  std::printf("\npackets to host: %llu (all passed through telemetry)\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.dma.packets_to_host")));
  std::printf("telemetry engine processed: %llu\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.telemetry.processed")));
  return 0;
}
