// Property sweep over the PANIC configuration space: the end-to-end KVS
// hit path (SET -> GET -> on-NIC reply) and the host-delivery path must
// work under every combination of mesh size, channel width, scheduling
// policy and cache mode.
#include <gtest/gtest.h>

#include <ostream>

#include "core/panic_nic.h"
#include "net/packet.h"

namespace panic::core {
namespace {

struct SweepCase {
  int k;
  std::uint32_t width;
  int rmt_engines;
  engines::SchedKind sched;
  engines::KvsCacheMode kvs_mode;
};

// The case's label, which ctest puts in the test name.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "k" << c.k << "_w" << c.width << "_rmt" << c.rmt_engines << "_"
      << engines::to_string(c.sched)
      << (c.kvs_mode == engines::KvsCacheMode::kLocation ? "_loc" : "_val");
}

class ConfigSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConfigSweep, KvsHitPathWorksEndToEnd) {
  const auto& param = GetParam();
  Simulator sim;
  PanicConfig cfg;
  cfg.mesh.k = param.k;
  cfg.mesh.channel_bits = param.width;
  cfg.rmt_engines = param.rmt_engines;
  cfg.sched_policy = param.sched;
  cfg.kvs_mode = param.kvs_mode;
  PanicNic nic(cfg, sim);

  const Ipv4Addr client(10, 1, 0, 2);
  const Ipv4Addr server(10, 0, 0, 1);

  std::vector<std::vector<std::uint8_t>> tx;
  nic.eth_port(0).set_tx_sink(
      [&](const Message& msg, Cycle) { tx.push_back(msg.data); });

  // Plain packet to the host.
  deliver_frame(nic.eth_port(0), frames::min_udp(client, server), sim.now());
  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() >= 1; }, 100000));

  // SET then GET: the reply must leave the wire with the right payload.
  deliver_frame(nic.eth_port(0),
                frames::kvs_set(client, server, 1, 99, 1, 48), sim.now());
  ASSERT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() >= 2; }, 100000));
  deliver_frame(nic.eth_port(0),
                frames::kvs_get(client, server, 1, 99, 2), sim.now());
  ASSERT_TRUE(sim.run_until([&] { return !tx.empty(); }, 300000));

  EXPECT_EQ(nic.kvs().hits(), 1u);
  const auto parsed = parse_frame(tx[0]);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->kvs.has_value());
  EXPECT_EQ(parsed->kvs->op, KvsOp::kGetReply);
  EXPECT_EQ(parsed->kvs->key, 99u);
  EXPECT_EQ(parsed->payload_size, 48u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigSweep,
    ::testing::Values(
        SweepCase{4, 128, 2, engines::SchedKind::kSlack,
                  engines::KvsCacheMode::kLocation},
        SweepCase{4, 64, 1, engines::SchedKind::kSlack,
                  engines::KvsCacheMode::kLocation},
        SweepCase{4, 128, 2, engines::SchedKind::kFifo,
                  engines::KvsCacheMode::kLocation},
        SweepCase{4, 128, 2, engines::SchedKind::kSlack,
                  engines::KvsCacheMode::kValue},
        SweepCase{5, 256, 3, engines::SchedKind::kSlack,
                  engines::KvsCacheMode::kLocation},
        SweepCase{6, 64, 2, engines::SchedKind::kFifo,
                  engines::KvsCacheMode::kValue},
        SweepCase{8, 128, 4, engines::SchedKind::kSlack,
                  engines::KvsCacheMode::kLocation}));

// Failure injection: malformed input must never reach the host or crash
// the NIC; well-formed traffic afterwards still flows.
TEST(FailureInjection, MalformedFramesAreContained) {
  Simulator sim;
  PanicConfig cfg;
  cfg.mesh.k = 4;
  PanicNic nic(cfg, sim);
  const Ipv4Addr client(10, 1, 0, 2);
  const Ipv4Addr server(10, 0, 0, 1);

  // 1. Truncated mid-IPv4.
  auto truncated = frames::min_udp(client, server);
  truncated.resize(20);
  deliver_frame(nic.eth_port(0), truncated, sim.now());

  // 2. Garbage bytes.
  std::vector<std::uint8_t> garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  deliver_frame(nic.eth_port(0), garbage, sim.now());

  // 3. ESP frame with a corrupted tag (auth failure at the IPSec engine).
  auto esp = engines::IpsecEngine::encapsulate(
      frames::min_udp(client, server), 0x1001, 1);
  esp.back() ^= 0x5A;
  deliver_frame(nic.eth_port(0), esp, sim.now());

  // 4. KVS magic corrupted: parses as plain UDP, so it goes to the host.
  auto bad_kvs = frames::kvs_get(client, server, 1, 5, 1);
  bad_kvs[EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize] ^=
      0xFF;
  deliver_frame(nic.eth_port(0), bad_kvs, sim.now());

  sim.run(100000);
  // The corrupted-magic frame lands at the host as opaque UDP, and the
  // garbage frame as an unknown ethertype (real NICs deliver those too);
  // the truncated frame was dropped by the pipeline parser and the
  // tampered ESP by the IPSec engine's authentication check.
  EXPECT_EQ(nic.dma().packets_to_host(), 2u);
  EXPECT_EQ(nic.ipsec_rx().auth_failures(), 1u);
  EXPECT_GE(nic.rmt(0).messages_dropped() + nic.rmt(1).messages_dropped(),
            1u);

  // The NIC still works.
  deliver_frame(nic.eth_port(0), frames::min_udp(client, server), sim.now());
  EXPECT_TRUE(sim.run_until(
      [&] { return nic.dma().packets_to_host() >= 3; }, 100000));
}

}  // namespace
}  // namespace panic::core
