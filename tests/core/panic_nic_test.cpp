// End-to-end integration tests of the composed PANIC NIC: packets enter an
// Ethernet port, the heavyweight RMT pipeline builds chains, engines
// process and forward over the mesh, and traffic terminates at the host
// (DMA) or back on the wire — the full Figure 3c system.
#include "core/panic_nic.h"

#include <gtest/gtest.h>

#include "engines/ipsec_engine.h"
#include "net/packet.h"
#include "scenario/scenario.h"

namespace panic::core {
namespace {

const Ipv4Addr kLanClient(10, 1, 0, 2);
const Ipv4Addr kWanClient(203, 0, 113, 7);  // inside the WAN prefix
const Ipv4Addr kServer(10, 0, 0, 1);

PanicConfig small_config() {
  PanicConfig cfg;
  cfg.mesh.k = 4;
  cfg.eth_ports = 2;
  cfg.rmt_engines = 2;
  return cfg;
}

TEST(PanicTopology, DistinctTiles) {
  const auto topo = PanicNic::plan_topology(small_config());
  std::vector<std::uint16_t> ids;
  for (const auto& p : topo.eth_ports) ids.push_back(p.value);
  for (const auto& r : topo.rmt_engines) ids.push_back(r.value);
  for (EngineId id : {topo.dma, topo.pcie, topo.ipsec_rx, topo.ipsec_tx,
                      topo.kvs, topo.rdma, topo.compression, topo.checksum,
                      topo.regex}) {
    ids.push_back(id.value);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_LT(ids.back(), 16);  // all inside the 4x4 mesh
}

TEST(PanicTopology, ThrowsWhenMeshTooSmall) {
  PanicConfig cfg = small_config();
  cfg.mesh.k = 3;  // 9 tiles < 2 + 2 + 9 engines
  EXPECT_THROW(PanicNic::plan_topology(cfg), std::runtime_error);
}

TEST(PanicTopology, FeasibilityAgreesWithPlacement) {
  // Scenario::feasible() budgets tiles from the fixed-engine roster;
  // plan_topology() places them.  Over a sweep of every tile-consuming
  // knob, the two accept exactly the same configs.
  int placed = 0;
  int refused = 0;
  for (int k = 2; k <= 6; ++k) {
    for (int eth = 1; eth <= 3; ++eth) {
      for (int rmt = 1; rmt <= 3; ++rmt) {
        for (int aux = 0; aux <= 3; ++aux) {
          for (int spare = 0; spare <= 3; ++spare) {
            scenario::Scenario s;
            s.mesh_k = k;
            s.eth_ports = eth;
            s.rmt_engines = rmt;
            s.aux_engines = aux;
            s.spare_tiles = spare;
            bool fits = true;
            try {
              PanicNic::plan_topology(s.to_config());
            } catch (const std::runtime_error&) {
              fits = false;
            }
            EXPECT_EQ(s.feasible(), fits)
                << "k=" << k << " eth=" << eth << " rmt=" << rmt
                << " aux=" << aux << " spare=" << spare;
            ++(fits ? placed : refused);
          }
        }
      }
    }
  }
  // The sweep straddles the boundary.
  EXPECT_GT(placed, 0);
  EXPECT_GT(refused, 0);
}

TEST(PanicTopology, TileNamesNameEveryEngineTileOnce) {
  PanicConfig cfg = small_config();
  cfg.mesh.k = 5;
  cfg.aux_engines = 3;
  cfg.spare_tiles = 2;
  const PanicTopology topo = PanicNic::plan_topology(cfg);
  const rmt::SymbolTable names = topo.tile_names();

  // The fixed engines follow the interleaved ports and RMT engines in
  // roster order, under their roster names.
  const std::size_t head = topo.eth_ports.size() + topo.rmt_engines.size();
  for (std::size_t i = 0; i < kFixedEngines.size(); ++i) {
    const FixedEngine& e = kFixedEngines[i];
    EXPECT_EQ((topo.*e.tile).value, head + i) << e.name;
    EXPECT_EQ(names.at(e.name), (topo.*e.tile).value) << e.name;
  }
  EXPECT_EQ(names.at("eth1"), topo.eth_ports[1].value);
  EXPECT_EQ(names.at("aux2"), topo.aux[2].value);
  EXPECT_EQ(names.at("spare1"), topo.spare[1].value);
  EXPECT_EQ(names.size(), kFixedEngines.size() + 2 + 3 + 2);

  // Named tiles and RMT engines together own every placed tile exactly
  // once, and nothing past them.
  std::vector<int> owners(25, 0);
  for (const auto& [name, tile] : names) ++owners[tile];
  for (EngineId id : topo.rmt_engines) ++owners[id.value];
  const std::size_t placed = names.size() + 2;
  for (std::size_t t = 0; t < owners.size(); ++t) {
    EXPECT_EQ(owners[t], t < placed ? 1 : 0) << "tile " << t;
  }

  // Every roster name is a built engine (and so a fault target).
  Simulator sim;
  PanicNic nic(cfg, sim);
  const auto snap = sim.snapshot();
  for (const FixedEngine& e : kFixedEngines) {
    EXPECT_TRUE(snap.has("engine." + std::string(e.name) + ".processed"))
        << e.name;
  }
}

TEST(PanicNic, PlainPacketDeliveredToHost) {
  Simulator sim;
  PanicNic nic(small_config(), sim);

  deliver_frame(nic.eth_port(0),
                frames::min_udp(kLanClient, kServer), sim.now());
  const bool done = sim.run_until(
      [&] { return nic.dma().packets_to_host() == 1; }, 50000);
  ASSERT_TRUE(done);

  // Exactly one heavyweight pipeline pass (§3.1.2: unencrypted messages in
  // one pass).
  EXPECT_EQ(nic.total_rmt_passes(), 1u);
  // Delivery latency was recorded.
  EXPECT_EQ(nic.dma().host_delivery_latency().count(), 1u);
  // The DMA engine notified the PCIe engine, which raised an interrupt.
  sim.run(2000);
  EXPECT_EQ(nic.pcie().interrupts_delivered(), 1u);
}

TEST(PanicNic, InterruptsAreCoalescedUnderBursts) {
  Simulator sim;
  PanicNic nic(small_config(), sim);
  for (int i = 0; i < 20; ++i) {
    deliver_frame(nic.eth_port(0),
                  frames::min_udp(kLanClient, kServer), sim.now());
  }
  sim.run_until([&] { return nic.dma().packets_to_host() == 20; }, 200000);
  sim.run(2000);
  EXPECT_GE(nic.pcie().interrupts_delivered(), 1u);
  EXPECT_GT(nic.pcie().interrupts_coalesced(), 0u);
  EXPECT_EQ(nic.pcie().interrupts_delivered() +
                nic.pcie().interrupts_coalesced(),
            20u);
}

TEST(PanicNic, KvsGetMissGoesToHost) {
  Simulator sim;
  PanicNic nic(small_config(), sim);

  deliver_frame(nic.eth_port(0), frames::kvs_get(kLanClient, kServer, 1, 42, 1),
                sim.now());
  const bool done = sim.run_until(
      [&] { return nic.dma().packets_to_host() == 1; }, 50000);
  ASSERT_TRUE(done);
  EXPECT_EQ(nic.kvs().misses(), 1u);
  EXPECT_EQ(nic.kvs().hits(), 0u);
}

TEST(PanicNic, KvsGetHitRepliesFromNicWithoutHostDelivery) {
  Simulator sim;
  PanicNic nic(small_config(), sim);

  std::vector<std::vector<std::uint8_t>> tx_frames;
  nic.eth_port(0).set_tx_sink(
      [&](const Message& msg, Cycle) { tx_frames.push_back(msg.data); });

  // Install the value: a SET travels kvs -> host log.
  deliver_frame(nic.eth_port(0),
                frames::kvs_set(kLanClient, kServer, 1, 42, 1, 100),
                sim.now());
  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() == 1; }, 50000));
  EXPECT_EQ(nic.kvs().sets(), 1u);

  // GET hits the location cache: RDMA reads the value and the reply goes
  // out the ingress port; the request never reaches the host.
  deliver_frame(nic.eth_port(0), frames::kvs_get(kLanClient, kServer, 1, 42, 2),
                sim.now());
  ASSERT_TRUE(sim.run_until([&] { return !tx_frames.empty(); }, 100000));

  EXPECT_EQ(nic.kvs().hits(), 1u);
  EXPECT_EQ(nic.rdma().replies_generated(), 1u);
  EXPECT_EQ(nic.dma().packets_to_host(), 1u);  // still just the SET

  const auto parsed = parse_frame(tx_frames[0]);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->kvs.has_value());
  EXPECT_EQ(parsed->kvs->op, KvsOp::kGetReply);
  EXPECT_EQ(parsed->kvs->key, 42u);
  EXPECT_EQ(parsed->kvs->request_id, 2u);
  EXPECT_EQ(parsed->payload_size, 100u);
  EXPECT_EQ(parsed->ipv4->dst, kLanClient);
  // The checksum engine was on the reply chain and filled the UDP sum.
  EXPECT_TRUE(engines::ChecksumEngine::verify_l4_checksum(tx_frames[0]));
  EXPECT_EQ(nic.checksum().checksummed(), 1u);
}

TEST(PanicNic, EspPacketTakesTwoRmtPasses) {
  Simulator sim;
  PanicNic nic(small_config(), sim);

  const auto inner = frames::min_udp(kLanClient, kServer);
  deliver_frame(nic.eth_port(0),
                engines::IpsecEngine::encapsulate(inner, 0x1001, 1),
                sim.now());
  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() == 1; }, 100000));

  EXPECT_EQ(nic.ipsec_rx().decrypted(), 1u);
  // Pass 1 routed to IPSec; pass 2 routed the clear packet to the host.
  EXPECT_EQ(nic.total_rmt_passes(), 2u);
}

TEST(PanicNic, WanReplyIsEncrypted) {
  Simulator sim;
  PanicNic nic(small_config(), sim);

  std::vector<std::vector<std::uint8_t>> tx_frames;
  nic.eth_port(0).set_tx_sink(
      [&](const Message& msg, Cycle) { tx_frames.push_back(msg.data); });

  deliver_frame(nic.eth_port(0),
                frames::kvs_set(kWanClient, kServer, 1, 7, 1, 64),
                sim.now());
  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() == 1; }, 50000));

  deliver_frame(nic.eth_port(0),
                frames::kvs_get(kWanClient, kServer, 1, 7, 2), sim.now());
  ASSERT_TRUE(sim.run_until([&] { return !tx_frames.empty(); }, 200000));

  EXPECT_EQ(nic.ipsec_tx().encrypted(), 1u);
  const auto parsed = parse_frame(tx_frames[0]);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->esp.has_value());  // it left the NIC encrypted

  // And it decrypts back to the KVS reply.
  const auto clear = engines::IpsecEngine::decapsulate(tx_frames[0]);
  ASSERT_TRUE(clear.has_value());
  const auto inner = parse_frame(*clear);
  ASSERT_TRUE(inner.has_value());
  ASSERT_TRUE(inner->kvs.has_value());
  EXPECT_EQ(inner->kvs->op, KvsOp::kGetReply);
  EXPECT_EQ(inner->kvs->key, 7u);
}

TEST(PanicNic, LanReplyIsNotEncrypted) {
  Simulator sim;
  PanicNic nic(small_config(), sim);
  std::vector<std::vector<std::uint8_t>> tx_frames;
  nic.eth_port(0).set_tx_sink(
      [&](const Message& msg, Cycle) { tx_frames.push_back(msg.data); });

  deliver_frame(nic.eth_port(0),
                frames::kvs_set(kLanClient, kServer, 1, 7, 1, 64),
                sim.now());
  sim.run_until([&] { return nic.dma().packets_to_host() == 1; }, 50000);
  deliver_frame(nic.eth_port(0),
                frames::kvs_get(kLanClient, kServer, 1, 7, 2), sim.now());
  ASSERT_TRUE(sim.run_until([&] { return !tx_frames.empty(); }, 200000));

  EXPECT_EQ(nic.ipsec_tx().encrypted(), 0u);
  const auto parsed = parse_frame(tx_frames[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->esp.has_value());
}

TEST(PanicNic, EncryptedWanKvsFullPath) {
  // The complete §3.2 walk-through: encrypted GET arrives from the WAN,
  // is decrypted, hits the cache, is served via RDMA, and the reply goes
  // back out encrypted.
  Simulator sim;
  PanicNic nic(small_config(), sim);
  std::vector<std::vector<std::uint8_t>> tx_frames;
  nic.eth_port(0).set_tx_sink(
      [&](const Message& msg, Cycle) { tx_frames.push_back(msg.data); });

  // Warm the cache with a clear SET from the WAN client.
  deliver_frame(nic.eth_port(0),
                frames::kvs_set(kWanClient, kServer, 1, 9, 1, 32),
                sim.now());
  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() == 1; }, 50000));

  // Encrypted GET.
  const auto get = frames::kvs_get(kWanClient, kServer, 1, 9, 2);
  deliver_frame(nic.eth_port(0),
                engines::IpsecEngine::encapsulate(get, 0x1001, 5),
                sim.now());
  ASSERT_TRUE(sim.run_until([&] { return !tx_frames.empty(); }, 300000));

  EXPECT_EQ(nic.ipsec_rx().decrypted(), 1u);
  EXPECT_EQ(nic.kvs().hits(), 1u);
  EXPECT_EQ(nic.ipsec_tx().encrypted(), 1u);
  EXPECT_EQ(nic.dma().packets_to_host(), 1u);  // CPU bypassed for the GET

  const auto clear = engines::IpsecEngine::decapsulate(tx_frames[0]);
  ASSERT_TRUE(clear.has_value());
  const auto inner = parse_frame(*clear);
  EXPECT_EQ(inner->kvs->request_id, 2u);
  EXPECT_EQ(inner->payload_size, 32u);
}

TEST(PanicNic, CustomProgramEntryDrops) {
  PanicConfig cfg = small_config();
  cfg.program = R"(
    stage acl {
      table deny exact(l4.dport) {
        666 -> drop, clear_chain;
      }
    }
  )";
  Simulator sim;
  PanicNic nic(cfg, sim);

  deliver_frame(nic.eth_port(0),
                frames::min_udp(kLanClient, kServer, 1234, 666),
                sim.now());
  deliver_frame(nic.eth_port(0), frames::min_udp(kLanClient, kServer, 1234, 80),
                sim.now());
  sim.run_until([&] { return nic.dma().packets_to_host() == 1; }, 50000);
  sim.run(5000);
  EXPECT_EQ(nic.dma().packets_to_host(), 1u);  // only the clean packet
  EXPECT_EQ(nic.rmt(0).messages_dropped() + nic.rmt(1).messages_dropped(),
            1u);
}

TEST(PanicNic, MultiplePortsSpreadAcrossRmtEngines) {
  Simulator sim;
  PanicNic nic(small_config(), sim);
  deliver_frame(nic.eth_port(0),
                frames::min_udp(kLanClient, kServer), sim.now());
  deliver_frame(nic.eth_port(1),
                frames::min_udp(kLanClient, kServer), sim.now());
  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() == 2; }, 50000));
  // Each port homes to a different RMT engine (round-robin assignment).
  EXPECT_EQ(nic.rmt(0).messages_processed(), 1u);
  EXPECT_EQ(nic.rmt(1).messages_processed(), 1u);
}

TEST(PanicNic, TenantSlackAffectsSchedulingOrder) {
  // Two tenants share the (slow, contended) DMA engine.  The low-slack
  // tenant's packet must overtake queued high-slack packets.
  PanicConfig cfg = small_config();
  cfg.tenant_slacks = {{1, 1}, {2, 10000}};
  cfg.dma.base_latency = 500;  // slow DMA so a queue forms
  Simulator sim;
  PanicNic nic(cfg, sim);

  // Queue up bulk tenant-2 packets.
  for (int i = 0; i < 8; ++i) {
    deliver_frame(nic.eth_port(0),
                  frames::kvs_get(kLanClient, kServer, 2, 1000 + i, i),
                  sim.now(), TenantId{2});
  }
  sim.run(200);  // let them reach the DMA queue
  // Now a tenant-1 (latency-critical) packet arrives.
  deliver_frame(nic.eth_port(0),
                frames::kvs_get(kLanClient, kServer, 1, 1, 99), sim.now(),
                TenantId{1});

  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() >= 9; }, 300000));
  const auto& t1 = nic.dma().host_delivery_latency(TenantId{1});
  const auto& t2 = nic.dma().host_delivery_latency(TenantId{2});
  ASSERT_EQ(t1.count(), 1u);
  ASSERT_EQ(t2.count(), 8u);
  // Tenant 1 overtook most of the bulk queue: its latency is far below
  // the bulk tenant's worst case.
  EXPECT_LT(t1.max(), t2.max() / 2);
}

}  // namespace
}  // namespace panic::core
