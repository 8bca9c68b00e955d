#include "engines/sched_queue.h"

#include <gtest/gtest.h>

#include "fault/invariants.h"

namespace panic::engines {
namespace {

MessagePtr msg_with_slack(std::uint32_t slack) {
  auto msg = make_message();
  msg->slack = slack;
  return msg;
}

TEST(SchedulerQueue, SlackPriorityOrdering) {
  SchedulerQueue q(SchedKind::kSlack, 16);
  q.try_enqueue(msg_with_slack(50), 0);
  q.try_enqueue(msg_with_slack(10), 0);
  q.try_enqueue(msg_with_slack(30), 0);

  EXPECT_EQ(q.dequeue(0)->slack, 10u);
  EXPECT_EQ(q.dequeue(0)->slack, 30u);
  EXPECT_EQ(q.dequeue(0)->slack, 50u);
  EXPECT_EQ(q.dequeue(0), nullptr);
}

TEST(SchedulerQueue, FifoPolicyIgnoresSlack) {
  SchedulerQueue q(SchedKind::kFifo, 16);
  q.try_enqueue(msg_with_slack(50), 0);
  q.try_enqueue(msg_with_slack(10), 0);
  EXPECT_EQ(q.dequeue(0)->slack, 50u);  // arrival order
  EXPECT_EQ(q.dequeue(0)->slack, 10u);
}

TEST(SchedulerQueue, EqualSlackIsFifo) {
  SchedulerQueue q(SchedKind::kSlack, 16);
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto msg = msg_with_slack(7);
    msg->dma_addr = i;  // a tag
    q.try_enqueue(std::move(msg), 0);
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(q.dequeue(0)->dma_addr, i);
  }
}

TEST(SchedulerQueue, UrgentArrivalOvertakesQueuedBulk) {
  // The §3.1.3 scenario: bulk messages are queued; a high-priority (low
  // slack) message arrives later and must dequeue first.
  SchedulerQueue q(SchedKind::kSlack, 64);
  for (int i = 0; i < 10; ++i) q.try_enqueue(msg_with_slack(1000), 0);
  q.try_enqueue(msg_with_slack(1), 5);
  EXPECT_EQ(q.dequeue(5)->slack, 1u);
}

TEST(SchedulerQueue, DropsWhenFull) {
  SchedulerQueue q(SchedKind::kSlack, 2);
  EXPECT_TRUE(q.try_enqueue(msg_with_slack(1), 0));
  EXPECT_TRUE(q.try_enqueue(msg_with_slack(2), 0));
  EXPECT_FALSE(q.try_enqueue(msg_with_slack(0), 0));  // dropped, even urgent
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.enqueued(), 2u);
}

TEST(SchedulerQueue, WaitAccounting) {
  SchedulerQueue q(SchedKind::kFifo, 8);
  q.try_enqueue(msg_with_slack(0), 10);
  q.try_enqueue(msg_with_slack(0), 20);
  q.dequeue(30);  // waited 20
  q.dequeue(35);  // waited 15
  EXPECT_EQ(q.dequeued(), 2u);
  EXPECT_EQ(q.total_wait_cycles(), 35u);
}

TEST(SchedulerQueue, MaxDepthTracksHighWater) {
  SchedulerQueue q(SchedKind::kFifo, 8);
  q.try_enqueue(msg_with_slack(0), 0);
  q.try_enqueue(msg_with_slack(0), 0);
  q.dequeue(0);
  q.try_enqueue(msg_with_slack(0), 0);
  EXPECT_EQ(q.max_depth(), 2u);
}

TEST(SchedulerQueue, HeadSlack) {
  SchedulerQueue q(SchedKind::kSlack, 8);
  EXPECT_EQ(q.head_slack(), 0u);
  q.try_enqueue(msg_with_slack(42), 0);
  q.try_enqueue(msg_with_slack(7), 0);
  EXPECT_EQ(q.head_slack(), 7u);
}

TEST(SchedulerQueue, ZeroCapacityClampedToOne) {
  SchedulerQueue q(SchedKind::kFifo, 0);
  EXPECT_TRUE(q.try_enqueue(msg_with_slack(0), 0));
  EXPECT_FALSE(q.try_enqueue(msg_with_slack(0), 0));
}

TEST(SchedulerQueue, EvictLoosestAdmitsUrgentWhenFull) {
  SchedulerQueue q(SchedKind::kSlack, 3, DropPolicy::kEvictLoosest);
  q.try_enqueue(msg_with_slack(100), 0);
  q.try_enqueue(msg_with_slack(500), 0);
  q.try_enqueue(msg_with_slack(300), 0);
  ASSERT_TRUE(q.full());

  // An urgent arrival evicts the slack-500 message.
  EXPECT_TRUE(q.try_enqueue(msg_with_slack(5), 1));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.dequeue(1)->slack, 5u);
  EXPECT_EQ(q.dequeue(1)->slack, 100u);
  EXPECT_EQ(q.dequeue(1)->slack, 300u);
  EXPECT_EQ(q.dequeue(1), nullptr);
}

TEST(SchedulerQueue, EvictLoosestStillDropsLooserArrival) {
  SchedulerQueue q(SchedKind::kSlack, 2, DropPolicy::kEvictLoosest);
  q.try_enqueue(msg_with_slack(10), 0);
  q.try_enqueue(msg_with_slack(20), 0);
  // The arrival is looser than everything queued: it is the one dropped.
  EXPECT_FALSE(q.try_enqueue(msg_with_slack(99), 0));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.dequeue(0)->slack, 10u);
}

TEST(SchedulerQueue, EvictLoosestEqualSlackDropsArrival) {
  SchedulerQueue q(SchedKind::kSlack, 1, DropPolicy::kEvictLoosest);
  q.try_enqueue(msg_with_slack(50), 0);
  // Equal slack: the queued (older) message keeps its place.
  EXPECT_FALSE(q.try_enqueue(msg_with_slack(50), 0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(SchedulerQueue, DropArrivalOverflowAccountsEverywhere) {
  // The drop counter, its telemetry mirror, and the conservation ledger
  // must all agree on how many messages the overflow destroyed.
  fault::ConservationChecker conservation;
  telemetry::MetricsRegistry m;
  SchedulerQueue q(SchedKind::kSlack, 4, DropPolicy::kDropArrival);
  q.register_metrics(m, "engine.test.queue");

  for (std::uint32_t i = 0; i < 6; ++i) q.try_enqueue(msg_with_slack(i), 0);
  EXPECT_EQ(q.dropped(), 2u);
  EXPECT_EQ(m.snapshot().counter("engine.test.queue.dropped"), 2u);
  EXPECT_EQ(conservation.delta().dropped, 2);
  EXPECT_EQ(conservation.delta().live, 4);
  EXPECT_TRUE(conservation.verify());

  // Drain with explicit fates: the window must close balanced.
  while (auto msg = q.dequeue(1)) msg->set_fate(MessageFate::kConsumed);
  EXPECT_EQ(conservation.delta().consumed, 4);
  EXPECT_TRUE(conservation.verify());
}

TEST(SchedulerQueue, EvictLoosestOverflowAccountsEverywhere) {
  // Same agreement under eviction: each urgent arrival kills the loosest
  // queued message, and every victim gets a kDropped fate.
  fault::ConservationChecker conservation;
  telemetry::MetricsRegistry m;
  SchedulerQueue q(SchedKind::kSlack, 4, DropPolicy::kEvictLoosest);
  q.register_metrics(m, "engine.test.queue");

  // Fill with loose messages, then push urgent ones that each evict.
  for (std::uint32_t i = 0; i < 4; ++i) {
    q.try_enqueue(msg_with_slack(1000 + i * 100), 0);
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.try_enqueue(msg_with_slack(1 + i), 1));
  }
  EXPECT_EQ(q.dropped(), 4u);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(m.snapshot().counter("engine.test.queue.dropped"), 4u);
  EXPECT_EQ(conservation.delta().dropped, 4);
  EXPECT_TRUE(conservation.verify());

  // Only the urgent arrivals survived.
  while (auto msg = q.dequeue(2)) {
    EXPECT_LE(msg->slack, 4u);
    msg->set_fate(MessageFate::kConsumed);
  }
  EXPECT_TRUE(conservation.verify());
}

TEST(SchedulerQueue, EvictAllDrainsWithoutTouchingStatistics) {
  // Fault drains are not scheduling decisions: the caller assigns fates
  // and the drop/dequeue counters stay untouched.
  fault::ConservationChecker conservation;
  SchedulerQueue q(SchedKind::kSlack, 8);
  for (std::uint32_t i = 0; i < 5; ++i) q.try_enqueue(msg_with_slack(i), 0);

  auto drained = q.evict_all();
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_EQ(q.dequeued(), 0u);

  for (auto& msg : drained) msg->set_fate(MessageFate::kFaulted);
  drained.clear();
  EXPECT_EQ(conservation.delta().faulted, 5);
  EXPECT_TRUE(conservation.verify());
}

TEST(SchedulerQueue, FifoEvictLoosestTailDrops) {
  // Eviction compares ranks, and under `sched fifo` every rank is 0: no
  // queued message is looser than the arrival, so evict degenerates to
  // tail-drop whatever the slacks say.
  SchedulerQueue q(SchedKind::kFifo, 2, DropPolicy::kEvictLoosest);
  q.try_enqueue(msg_with_slack(500), 0);
  q.try_enqueue(msg_with_slack(900), 0);
  EXPECT_FALSE(q.try_enqueue(msg_with_slack(1), 0));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.dequeue(0)->slack, 500u);
  EXPECT_EQ(q.dequeue(0)->slack, 900u);
  EXPECT_EQ(q.dequeue(0), nullptr);
}

TEST(SchedulerQueue, DropArrivalNeverEvicts) {
  SchedulerQueue q(SchedKind::kSlack, 1, DropPolicy::kDropArrival);
  q.try_enqueue(msg_with_slack(1000), 0);
  EXPECT_FALSE(q.try_enqueue(msg_with_slack(1), 0));  // urgent but dropped
  EXPECT_EQ(q.dequeue(0)->slack, 1000u);
}

}  // namespace
}  // namespace panic::engines
