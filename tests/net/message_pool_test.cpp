// Pool recycling semantics: id freshness, buffer-capacity retention, and
// the double-recycle guard.  The pool is process-wide, so tests measure
// stat deltas rather than absolute values.
#include "net/message_pool.h"

#include <gtest/gtest.h>

#include "net/message.h"

namespace panic {
namespace {

TEST(MessagePool, MakeMessageAssignsFreshIdsAcrossRecycling) {
  auto a = make_message();
  const auto id_a = a->id;
  recycle_message(std::move(a));

  // The recycled storage may be reused, but the id must be new.
  auto b = make_message();
  EXPECT_GT(b->id.value, id_a.value);

  auto c = make_message();
  EXPECT_GT(c->id.value, b->id.value);
}

TEST(MessagePool, RecycledMessageKeepsDataCapacity) {
  MessagePool::instance().trim();  // cold pool: the next acquire is ours

  auto msg = make_message();
  msg->data.assign(1500, 0xAB);
  const std::size_t cap = msg->data.capacity();
  Message* raw = msg.get();
  recycle_message(std::move(msg));

  auto again = make_message();
  ASSERT_EQ(again.get(), raw);  // LIFO free list hands back the same object
  EXPECT_TRUE(again->data.empty());
  EXPECT_GE(again->data.capacity(), cap);
}

TEST(MessagePool, ResetForReuseClearsAllMessageState) {
  auto msg = make_message(MessageKind::kDmaRead);
  msg->data.assign(64, 1);
  msg->tenant = TenantId{7};
  msg->chain.push_hop(EngineId{3}, 11);
  msg->slack = 42;
  msg->meta.has_udp = true;
  msg->meta_valid = true;
  msg->reply_to = EngineId{5};
  msg->dma_addr = 0x1000;
  msg->dma_bytes = 256;
  msg->ingress_port = EngineId{1};
  msg->egress_port = EngineId{2};
  msg->from_host = true;
  msg->created_at = 10;
  msg->nic_ingress_at = 11;
  msg->rmt_passes = 3;
  msg->noc_hops = 4;
  msg->engines_visited = 5;

  msg->reset_for_reuse();
  EXPECT_EQ(msg->kind, MessageKind::kPacket);
  EXPECT_TRUE(msg->data.empty());
  EXPECT_EQ(msg->tenant, TenantId{});
  EXPECT_FALSE(msg->chain.current().has_value());
  EXPECT_EQ(msg->chain.total_hops(), 0u);
  EXPECT_EQ(msg->slack, 0u);
  EXPECT_FALSE(msg->meta.has_udp);
  EXPECT_FALSE(msg->meta_valid);
  EXPECT_FALSE(msg->reply_to.valid());
  EXPECT_EQ(msg->dma_addr, 0u);
  EXPECT_EQ(msg->dma_bytes, 0u);
  EXPECT_FALSE(msg->ingress_port.valid());
  EXPECT_FALSE(msg->egress_port.valid());
  EXPECT_FALSE(msg->from_host);
  EXPECT_EQ(msg->created_at, 0u);
  EXPECT_EQ(msg->nic_ingress_at, 0u);
  EXPECT_EQ(msg->rmt_passes, 0u);
  EXPECT_EQ(msg->noc_hops, 0u);
  EXPECT_EQ(msg->engines_visited, 0u);
}

TEST(MessagePool, StatsTrackHitsMissesAndRecycles) {
  auto& pool = MessagePool::instance();
  pool.trim();

  const auto before = pool.stats();
  auto a = make_message();  // miss: free list is empty
  EXPECT_EQ(pool.stats().pool_misses, before.pool_misses + 1);
  EXPECT_EQ(pool.stats().live, before.live + 1);

  recycle_message(std::move(a));
  EXPECT_EQ(pool.stats().recycled, before.recycled + 1);
  EXPECT_EQ(pool.free_size(), 1u);

  auto b = make_message();  // hit: served from the free list
  EXPECT_EQ(pool.stats().pool_hits, before.pool_hits + 1);
  EXPECT_EQ(pool.stats().pool_misses, before.pool_misses + 1);
  recycle_message(std::move(b));
}

TEST(MessagePool, SteadyStateChurnNeverMisses) {
  auto& pool = MessagePool::instance();
  // Warm the pool with one message's worth of capacity...
  recycle_message(make_message());
  const auto misses_before = pool.stats().pool_misses;
  // ...then churn: create/destroy pairs must be served entirely by reuse.
  for (int i = 0; i < 10000; ++i) {
    auto msg = make_message();
    msg->data.resize(64);
    recycle_message(std::move(msg));
  }
  EXPECT_EQ(pool.stats().pool_misses, misses_before);
}

TEST(MessagePoolDeathTest, DoubleRecycleAbortsInEveryBuildType) {
  auto msg = make_message();
  Message* raw = msg.get();
  recycle_message(std::move(msg));
  // Releasing the same object again corrupts the free list; the pool
  // aborts unconditionally (not assert-only), so this holds in Release.
  EXPECT_DEATH(MessagePool::instance().release(raw), "recycled twice");
}

}  // namespace
}  // namespace panic
