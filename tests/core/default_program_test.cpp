// The default RMT program, one message of each class: the chain it builds,
// the slack on its hops, its receive-queue bucket, its WAN mark and its
// drop bit, read off one rmt::Pipeline pass.
#include "core/program_factory.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/panic_nic.h"
#include "engines/ipsec_engine.h"
#include "net/packet.h"

namespace panic::core {
namespace {

const Ipv4Addr kServer(10, 0, 0, 1);
const Ipv4Addr kLanPeer(10, 1, 0, 9);
const Ipv4Addr kWanPeer(203, 0, 113, 50);  // inside the program's WAN /24
constexpr std::uint16_t kSlackTenant = 3;  // has a `slack` entry
constexpr std::uint32_t kTenantSlack = 40;
constexpr std::uint16_t kOtherTenant = 9;  // falls to the default slack
constexpr std::uint32_t kDefaultSlack = 700;

std::vector<std::uint8_t> tcp_to(Ipv4Addr dst) {
  return FrameBuilder()
      .eth(*MacAddr::parse("02:00:00:00:00:02"),
           *MacAddr::parse("02:00:00:00:00:01"))
      .ipv4(kServer, dst)
      .tcp(5000, 80)
      .payload_size(4000)
      .build();
}

std::vector<std::uint8_t> reply_to(Ipv4Addr dst) {
  const std::vector<std::uint8_t> value(16, 0xAB);
  return frames::kvs_get_reply(kServer, dst, kOtherTenant, 7, 1, value);
}

/// Where a message enters the pipeline from.
enum class Origin {
  kWire,      ///< received on an Ethernet port
  kHost,      ///< host TX: from_host, with a descriptor egress port
  kNicReply,  ///< generated on the NIC, with a recorded egress port
};

struct Case {
  const char* name;
  std::vector<std::uint8_t> frame;
  Origin origin;
  std::uint16_t tenant;  ///< metadata tenant stamped at ingress
  std::vector<EngineId> chain;
  std::uint32_t slack;  ///< on every hop
  bool from_wan;
  bool load_balanced;  ///< a receive queue was picked (< 8); else queue 0
};

std::vector<Case> cases(const PanicTopology& t) {
  const EngineId out = t.eth_ports[1];
  const auto plain = frames::min_udp(kLanPeer, kServer, 40001, 80);
  return {
      {"esp from the wire",
       engines::IpsecEngine::encapsulate(plain, 0x1001, 1), Origin::kWire,
       kOtherTenant, {t.ipsec_rx}, kDefaultSlack, false, false},
      {"kvs get", frames::kvs_get(kLanPeer, kServer, kOtherTenant, 7, 1),
       Origin::kWire, kOtherTenant, {t.kvs}, kDefaultSlack, false, false},
      {"kvs set", frames::kvs_set(kLanPeer, kServer, kOtherTenant, 7, 2, 64),
       Origin::kWire, kOtherTenant, {t.kvs, t.dma}, kDefaultSlack, false,
       false},
      {"host tx to wan", frames::min_udp(kServer, kWanPeer), Origin::kHost,
       kOtherTenant, {t.checksum, t.ipsec_tx, out}, kDefaultSlack, true,
       false},
      {"host tx to lan", frames::min_udp(kServer, kLanPeer), Origin::kHost,
       kOtherTenant, {t.checksum, out}, kDefaultSlack, false, false},
      {"kvs reply to wan", reply_to(kWanPeer), Origin::kNicReply,
       kOtherTenant, {t.checksum, t.ipsec_tx, out}, kDefaultSlack, true,
       false},
      {"kvs reply to lan", reply_to(kLanPeer), Origin::kNicReply,
       kOtherTenant, {t.checksum, out}, kDefaultSlack, false, false},
      {"host tcp to wan (tso)", tcp_to(kWanPeer), Origin::kHost,
       kOtherTenant, {t.tso, t.checksum, t.ipsec_tx, out}, kDefaultSlack,
       true, false},
      {"host tcp to lan (tso)", tcp_to(kLanPeer), Origin::kHost,
       kOtherTenant, {t.tso, t.checksum, out}, kDefaultSlack, false, false},
      {"plain packet", plain, Origin::kWire, 0, {t.dma}, kDefaultSlack, false,
       true},
      {"tenant with a slack entry", plain, Origin::kWire, kSlackTenant,
       {t.dma}, kTenantSlack, false, true},
      {"tenant without a slack entry", plain, Origin::kWire, kOtherTenant,
       {t.dma}, kDefaultSlack, false, true},
      {"kvs-header tenant overrides the metadata tenant",
       frames::kvs_get(kLanPeer, kServer, kSlackTenant, 7, 3), Origin::kWire,
       kOtherTenant, {t.kvs}, kTenantSlack, false, false},
  };
}

TEST(DefaultProgram, RoutesOneMessageOfEachClass) {
  PanicConfig cfg;
  cfg.mesh.k = 4;
  cfg.default_slack = kDefaultSlack;
  cfg.tenant_slacks = {{kSlackTenant, kTenantSlack}};
  const PanicTopology topo = PanicNic::plan_topology(cfg);
  rmt::Pipeline pipeline(build_default_program(cfg, topo));

  for (const Case& c : cases(topo)) {
    SCOPED_TRACE(c.name);
    auto msg = make_message(MessageKind::kPacket);
    msg->data = c.frame;
    msg->tenant = TenantId{c.tenant};
    msg->from_host = c.origin == Origin::kHost;
    if (c.origin != Origin::kWire) msg->egress_port = topo.eth_ports[1];

    const rmt::ProcessResult result = pipeline.process(*msg);
    EXPECT_TRUE(result.parsed);
    EXPECT_FALSE(result.drop);
    std::vector<EngineId> chain;
    for (const ChainHop& hop : msg->chain.hops()) {
      chain.push_back(hop.engine);
      EXPECT_EQ(hop.slack, c.slack);
    }
    EXPECT_EQ(chain, c.chain);
    EXPECT_EQ(msg->meta.from_wan, c.from_wan);
    if (c.load_balanced) {
      EXPECT_LT(result.queue, 8u);
    } else {
      EXPECT_EQ(result.queue, 0u);
    }
  }
}

}  // namespace
}  // namespace panic::core
