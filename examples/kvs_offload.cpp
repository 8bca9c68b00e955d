// The paper's motivating application (§2.2, §3.2): a multi-tenant,
// geo-distributed key-value store whose hot keys are served from the NIC.
//
// Scenario: two tenants issue Zipf-distributed GETs.  Hot keys hit the
// on-NIC location cache and are answered via RDMA + DMA reads with the
// host CPU bypassed; cold keys are steered to host receive queues.  WAN
// clients' replies leave encrypted.
#include <cstdio>

#include "common/cli.h"
#include "core/panic_nic.h"
#include "net/packet.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

using namespace panic;

int main(int argc, char** argv) {
  panic::cli::ArgParser args("kvs_offload", "KVS GET/SET offload walkthrough");
  args.parse(argc, argv);
  Simulator sim(Frequency::megahertz(500), args.sim_mode());
  core::PanicConfig config;
  config.mesh.k = 4;
  config.kvs_capacity = 1024;
  config.tenant_slacks = {{1, 10}, {2, 1000}};  // tenant 1 is interactive
  core::PanicNic nic(config, sim);

  const Ipv4Addr lan_client(10, 1, 0, 2);
  const Ipv4Addr wan_client(203, 0, 113, 7);  // in the WAN prefix
  const Ipv4Addr server(10, 0, 0, 1);

  std::uint64_t replies = 0, encrypted_replies = 0;
  Histogram reply_latency;
  for (int p = 0; p < nic.num_eth_ports(); ++p) {
    nic.eth_port(p).set_tx_sink([&](const Message& msg, Cycle now) {
      ++replies;
      const auto parsed = parse_frame(msg.data);
      if (parsed && parsed->esp) ++encrypted_replies;
      if (now >= msg.nic_ingress_at) {
        reply_latency.record(now - msg.nic_ingress_at);
      }
    });
  }

  // Warm the cache: install the 1024 hottest keys (coldest first so the
  // LRU keeps the hottest at the end).
  std::printf("warming location cache with 1024 hot keys...\n");
  for (std::uint64_t i = 0; i < 1024; ++i) {
    deliver_frame(nic.eth_port(0),
                  frames::kvs_set(lan_client, server, 1, 1023 - i,
                                  static_cast<std::uint32_t>(i), 128),
                  sim.now());
    sim.run(150);
  }
  const auto& kvs_sets =
      sim.telemetry().metrics().counter("engine.kvs.sets");
  sim.run_until([&] { return kvs_sets >= 1024; }, 1000000);

  // Tenant 1: LAN clients, interactive GETs on port 0.
  workload::KvsWorkloadConfig lan;
  lan.client = lan_client;
  lan.server = server;
  lan.tenant = 1;
  lan.num_keys = 8192;
  lan.zipf_skew = 0.99;
  lan.get_fraction = 1.0;
  workload::TrafficConfig lan_traffic;
  lan_traffic.pattern = workload::ArrivalPattern::kPoisson;
  lan_traffic.mean_gap_cycles = 400.0;
  lan_traffic.max_frames = 3000;
  workload::TrafficSource lan_src("lan", &nic.eth_port(0),
                                  workload::make_kvs_filler(lan), lan_traffic);
  sim.add(&lan_src);

  // Tenant 2: WAN clients on port 1 — same store, replies must encrypt.
  workload::KvsWorkloadConfig wan = lan;
  wan.client = wan_client;
  wan.tenant = 2;
  workload::TrafficConfig wan_traffic = lan_traffic;
  wan_traffic.mean_gap_cycles = 800.0;
  wan_traffic.max_frames = 1500;
  wan_traffic.seed = 2;
  workload::TrafficSource wan_src("wan", &nic.eth_port(1),
                                  workload::make_kvs_filler(wan), wan_traffic);
  sim.add(&wan_src);

  const auto host_before =
      sim.snapshot().counter("engine.dma.packets_to_host");
  sim.run(3000 * 400 + 200000);

  const auto snap = sim.snapshot();
  const auto hits = snap.counter("engine.kvs.hits");
  const auto gets = hits + snap.counter("engine.kvs.misses");
  std::printf("\n--- results after %.1f us simulated ---\n",
              sim.now_ns() / 1000.0);
  std::printf("GETs processed by cache engine: %llu\n",
              static_cast<unsigned long long>(gets));
  std::printf("cache hit rate:                 %.1f%%\n",
              100.0 * static_cast<double>(hits) /
                  static_cast<double>(gets ? gets : 1));
  std::printf("replies served from NIC:        %llu (%llu encrypted)\n",
              static_cast<unsigned long long>(replies),
              static_cast<unsigned long long>(encrypted_replies));
  std::printf("misses steered to host:         %llu\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.dma.packets_to_host") - host_before));
  std::printf("reply latency (cycles @500MHz): %s\n",
              reply_latency.summary().c_str());
  std::printf("RMT passes total:               %.0f\n",
              snap.value("nic.rmt_passes"));
  return 0;
}
