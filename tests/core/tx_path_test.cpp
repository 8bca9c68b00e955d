// The transmit path: host driver posts a descriptor, PCIe engine fetches
// descriptor and frame through the DMA engine, the RMT pipeline routes the
// from-host packet through the checksum offload (and IPSec for WAN
// destinations) to its egress port — §3.1's "reading transmit descriptors
// ... are all treated as packets", end to end.
#include <gtest/gtest.h>

#include "core/panic_nic.h"
#include "engines/checksum_engine.h"
#include "engines/ipsec_engine.h"
#include "net/packet.h"

namespace panic::core {
namespace {

const Ipv4Addr kServer(10, 0, 0, 1);
const Ipv4Addr kLanPeer(10, 1, 0, 9);
const Ipv4Addr kWanPeer(203, 0, 113, 50);

PanicConfig small_config() {
  PanicConfig cfg;
  cfg.mesh.k = 4;
  return cfg;
}

struct TxFixture {
  TxFixture() : sim(), nic(small_config(), sim) {
    for (int p = 0; p < nic.num_eth_ports(); ++p) {
      nic.eth_port(p).set_tx_sink([this, p](const Message& msg, Cycle) {
        tx_frames.emplace_back(p, msg.data);
      });
    }
  }

  bool wait_tx(std::size_t n, Cycles budget = 200000) {
    return sim.run_until([&] { return tx_frames.size() >= n; }, budget);
  }

  Simulator sim;
  PanicNic nic;
  std::vector<std::pair<int, std::vector<std::uint8_t>>> tx_frames;
};

TEST(TxPath, HostFrameLeavesCorrectPort) {
  TxFixture f;
  const auto frame = FrameBuilder()
                         .eth(*MacAddr::parse("02:00:00:00:00:02"),
                              *MacAddr::parse("02:00:00:00:00:01"))
                         .ipv4(kServer, kLanPeer)
                         .udp(8080, 9999)
                         .payload_size(200)
                         .build();
  f.nic.host_driver().post_tx(frame, /*port=*/1, f.sim.now());
  ASSERT_TRUE(f.wait_tx(1));

  EXPECT_EQ(f.tx_frames[0].first, 1);  // requested port
  const auto parsed = parse_frame(f.tx_frames[0].second);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->udp.has_value());
  EXPECT_EQ(parsed->udp->dst_port, 9999);
  EXPECT_EQ(parsed->ipv4->dst, kLanPeer);
  EXPECT_EQ(f.nic.pcie().tx_packets_launched(), 1u);
  EXPECT_EQ(f.nic.host_driver().frames_posted(), 1u);
}

TEST(TxPath, ChecksumOffloadFillsL4Sum) {
  TxFixture f;
  auto frame = FrameBuilder()
                   .eth(*MacAddr::parse("02:00:00:00:00:02"),
                        *MacAddr::parse("02:00:00:00:00:01"))
                   .ipv4(kServer, kLanPeer)
                   .udp(8080, 9999)
                   .payload_size(64)
                   .build();
  // Host posts with a zero checksum (offloaded).
  f.nic.host_driver().post_tx(frame, 0, f.sim.now());
  ASSERT_TRUE(f.wait_tx(1));
  EXPECT_TRUE(
      engines::ChecksumEngine::verify_l4_checksum(f.tx_frames[0].second));
  // And it is non-zero: the engine actually computed it.
  const auto parsed = parse_frame(f.tx_frames[0].second);
  EXPECT_NE(parsed->udp->checksum, 0);
  EXPECT_GE(f.nic.checksum().checksummed(), 1u);
}

TEST(TxPath, WanBoundTxIsEncrypted) {
  TxFixture f;
  const auto frame = FrameBuilder()
                         .eth(*MacAddr::parse("02:00:00:00:00:02"),
                              *MacAddr::parse("02:00:00:00:00:01"))
                         .ipv4(kServer, kWanPeer)
                         .udp(8080, 443)
                         .payload_size(128)
                         .build();
  f.nic.host_driver().post_tx(frame, 0, f.sim.now());
  ASSERT_TRUE(f.wait_tx(1));

  EXPECT_EQ(f.nic.ipsec_tx().encrypted(), 1u);
  const auto parsed = parse_frame(f.tx_frames[0].second);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->esp.has_value());
  // Decrypts back to the original inner packet.
  const auto clear = engines::IpsecEngine::decapsulate(f.tx_frames[0].second);
  ASSERT_TRUE(clear.has_value());
  const auto inner = parse_frame(*clear);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->udp->dst_port, 443);
}

TEST(TxPath, ManyFramesAllDelivered) {
  TxFixture f;
  const int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    const auto frame =
        FrameBuilder()
            .eth(*MacAddr::parse("02:00:00:00:00:02"),
                 *MacAddr::parse("02:00:00:00:00:01"))
            .ipv4(kServer, kLanPeer)
            .udp(8080, static_cast<std::uint16_t>(10000 + i))
            .payload_size(100)
            .build();
    f.nic.host_driver().post_tx(frame, i % 2, f.sim.now());
    f.sim.run(100);
  }
  ASSERT_TRUE(f.wait_tx(kFrames, 500000));
  EXPECT_EQ(f.nic.pcie().tx_packets_launched(),
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(f.nic.pcie().tx_descriptor_errors(), 0u);
  // Both ports transmitted.
  int port0 = 0, port1 = 0;
  for (const auto& [port, bytes] : f.tx_frames) {
    (port == 0 ? port0 : port1)++;
  }
  EXPECT_EQ(port0, kFrames / 2);
  EXPECT_EQ(port1, kFrames / 2);
}

TEST(TxPath, BadPortIndexCountsError) {
  TxFixture f;
  const auto frame = frames::min_udp(kServer, kLanPeer);
  f.nic.host_driver().post_tx(frame, /*port=*/99, f.sim.now());
  f.sim.run(20000);
  EXPECT_EQ(f.nic.pcie().tx_descriptor_errors(), 1u);
  EXPECT_EQ(f.nic.pcie().tx_packets_launched(), 0u);
}

TEST(TxPath, JumboTcpIsSegmentedOnTheWayOut) {
  TxFixture f;
  const auto jumbo = FrameBuilder()
                         .eth(*MacAddr::parse("02:00:00:00:00:02"),
                              *MacAddr::parse("02:00:00:00:00:01"))
                         .ipv4(kServer, kLanPeer)
                         .tcp(5000, 80, /*seq=*/100, /*ack=*/1,
                              TcpHeader::kAck | TcpHeader::kPsh)
                         .payload_size(4000)
                         .build();
  f.nic.host_driver().post_tx(jumbo, 0, f.sim.now());
  ASSERT_TRUE(f.wait_tx(3, 500000));  // 1460+1460+1080

  EXPECT_EQ(f.nic.tso().frames_segmented(), 1u);
  EXPECT_EQ(f.nic.tso().segments_emitted(), 3u);
  std::size_t total_payload = 0;
  for (const auto& [port, bytes] : f.tx_frames) {
    const auto parsed = parse_frame(bytes);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->tcp.has_value());
    total_payload += parsed->payload_size;
    // Each segment passed the checksum engine after segmentation.
    EXPECT_TRUE(engines::ChecksumEngine::verify_l4_checksum(bytes));
  }
  EXPECT_EQ(total_payload, 4000u);
}

TEST(TxPath, SmallTcpTxNotSegmented) {
  TxFixture f;
  const auto frame = FrameBuilder()
                         .eth(*MacAddr::parse("02:00:00:00:00:02"),
                              *MacAddr::parse("02:00:00:00:00:01"))
                         .ipv4(kServer, kLanPeer)
                         .tcp(5000, 80, 100, 1)
                         .payload_size(500)
                         .build();
  f.nic.host_driver().post_tx(frame, 0, f.sim.now());
  ASSERT_TRUE(f.wait_tx(1));
  EXPECT_EQ(f.nic.tso().frames_segmented(), 0u);
  EXPECT_EQ(f.nic.tso().passed_through(), 1u);
  EXPECT_EQ(f.tx_frames.size(), 1u);
}

TEST(TxPath, RxAndTxConcurrently) {
  // Full duplex: RX traffic to the host while the host transmits.
  TxFixture f;
  for (int i = 0; i < 10; ++i) {
    deliver_frame(f.nic.eth_port(0),
                  frames::min_udp(kLanPeer, kServer), f.sim.now());
    const auto frame = FrameBuilder()
                           .eth(*MacAddr::parse("02:00:00:00:00:02"),
                                *MacAddr::parse("02:00:00:00:00:01"))
                           .ipv4(kServer, kLanPeer)
                           .udp(1, 2)
                           .payload_size(64)
                           .build();
    f.nic.host_driver().post_tx(frame, 0, f.sim.now());
    f.sim.run(500);
  }
  ASSERT_TRUE(f.wait_tx(10, 500000));
  ASSERT_TRUE(f.sim.run_until(
      [&] { return f.nic.dma().packets_to_host() >= 10; }, 200000));
  EXPECT_EQ(f.nic.pcie().tx_packets_launched(), 10u);
  EXPECT_EQ(f.nic.dma().packets_to_host(), 10u);
}

}  // namespace
}  // namespace panic::core
