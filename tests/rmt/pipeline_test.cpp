#include "rmt/pipeline.h"

#include <gtest/gtest.h>

#include "net/packet.h"
#include "rmt/p4lite.h"

namespace panic::rmt {
namespace {

const Ipv4Addr kSrc(10, 0, 0, 1);
const Ipv4Addr kDst(10, 0, 0, 2);

std::shared_ptr<const RmtProgram> compile(const std::string& stages) {
  std::string error;
  auto program = compile_p4lite(
      "parser default;\n" + stages,
      {{"host_a", 30}, {"host_b", 31}, {"kvs", 40}}, &error);
  EXPECT_TRUE(program.has_value()) << error;
  return std::make_shared<const RmtProgram>(std::move(program.value()));
}

std::shared_ptr<const RmtProgram> steering_program() {
  return compile(R"(
    stage slack {
      table slack exact(meta.tenant) {
        1 -> set_slack(10);
        default -> set_slack(1000);
      }
    }
    stage classify {
      table classify ternary(valid_kvs, l4.dport) {
        (0/0, 0/0) prio 1 -> chain(host_a, host_b);
        (1, 0/0) prio 10 -> chain(kvs);
      }
    }
  )");
}

MessagePtr packet_message(std::vector<std::uint8_t> frame) {
  auto msg = make_message(MessageKind::kPacket);
  msg->data = std::move(frame);
  return msg;
}

TEST(Pipeline, LatencyIsStagesPlusTwo) {
  Pipeline p(steering_program());
  EXPECT_EQ(p.latency_cycles(), 4u);  // 2 stages + parse + deparse
}

TEST(Pipeline, BuildsChainAndSlack) {
  Pipeline p(steering_program());
  auto msg = packet_message(frames::min_udp(kSrc, kDst));
  const auto result = p.process(*msg);
  EXPECT_TRUE(result.parsed);
  EXPECT_FALSE(result.drop);
  ASSERT_EQ(msg->chain.total_hops(), 2u);
  EXPECT_EQ(msg->chain.hops()[0].engine, EngineId{30});
  EXPECT_EQ(msg->chain.hops()[0].slack, 1000u);  // default slack
  EXPECT_EQ(msg->rmt_passes, 1u);
}

TEST(Pipeline, TenantSlackApplied) {
  Pipeline p(steering_program());
  auto msg = packet_message(frames::min_udp(kSrc, kDst));
  msg->tenant = TenantId{1};
  p.process(*msg);
  ASSERT_GE(msg->chain.total_hops(), 1u);
  EXPECT_EQ(msg->chain.hops()[0].slack, 10u);
}

TEST(Pipeline, KvsRoutedDifferently) {
  Pipeline p(steering_program());
  auto msg = packet_message(frames::kvs_get(kSrc, kDst, 1, 5, 9));
  p.process(*msg);
  ASSERT_EQ(msg->chain.total_hops(), 1u);
  EXPECT_EQ(msg->chain.hops()[0].engine, EngineId{40});
}

TEST(Pipeline, FillsMessageMeta) {
  Pipeline p(steering_program());
  auto msg = packet_message(frames::kvs_get(kSrc, kDst, 3, 0xFEED, 11));
  p.process(*msg);
  ASSERT_TRUE(msg->meta_valid);
  EXPECT_TRUE(msg->meta.is_kvs);
  EXPECT_TRUE(msg->meta.has_udp);
  EXPECT_EQ(msg->meta.kvs_key, 0xFEEDu);
  EXPECT_EQ(msg->meta.kvs_request_id, 11u);
  EXPECT_EQ(msg->tenant.value, 3);  // adopted from the KVS header
}

TEST(Pipeline, NonPacketMessagesSkipParser) {
  Pipeline p(steering_program());
  auto msg = make_message(MessageKind::kDmaRead);
  const auto result = p.process(*msg);
  EXPECT_TRUE(result.parsed);
  // The catch-all classify entry still routes it.
  EXPECT_EQ(msg->chain.total_hops(), 2u);
}

TEST(Pipeline, MalformedPacketReportsParseFailure) {
  Pipeline p(steering_program());
  auto frame = frames::min_udp(kSrc, kDst);
  frame.resize(20);
  auto msg = packet_message(std::move(frame));
  const auto result = p.process(*msg);
  EXPECT_FALSE(result.parsed);
}

TEST(Pipeline, DropAction) {
  Pipeline p(
      compile("stage acl { table acl exact(l4.dport) { 666 -> drop; } }"));
  auto evil = packet_message(frames::min_udp(kSrc, kDst, 1234, 666));
  EXPECT_TRUE(p.process(*evil).drop);
  auto fine = packet_message(frames::min_udp(kSrc, kDst, 1234, 80));
  EXPECT_FALSE(p.process(*fine).drop);
}

TEST(Pipeline, DeparseWritesModifiedFieldsBack) {
  Pipeline p(compile(R"(stage rewrite {
    table rewrite exact(l4.dport) { 80 -> set(l4.dport, 8080); }
  })"));
  auto msg = packet_message(frames::min_udp(kSrc, kDst, 1234, 80));
  p.process(*msg);
  const auto parsed = parse_frame(msg->data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->udp->dst_port, 8080);
}

TEST(Pipeline, StatefulLoadBalancingAcrossQueues) {
  // Round-robin queue assignment via a register counter: the classic
  // "load-balancing messages across descriptor queues" use (§3.1.2).
  Pipeline p(compile(R"(stage lb {
    table lb ternary(valid_ipv4) {
      1 -> reg_add(meta.queue, 0, valid_eth, 1),
           set_expr(meta.queue, meta.queue & 3);  // 4 queues
    }
  })"));
  std::uint64_t seen[4] = {0};
  for (int i = 0; i < 16; ++i) {
    auto msg = packet_message(frames::min_udp(kSrc, kDst));
    const auto r = p.process(*msg);
    seen[r.queue]++;
  }
  for (auto c : seen) EXPECT_EQ(c, 4u);  // perfectly round-robin
}

TEST(Pipeline, ProcessedCounter) {
  Pipeline p(steering_program());
  auto msg = packet_message(frames::min_udp(kSrc, kDst));
  p.process(*msg);
  p.process(*msg);
  EXPECT_EQ(p.messages_processed(), 2u);
  EXPECT_EQ(msg->rmt_passes, 2u);
}

}  // namespace
}  // namespace panic::rmt
