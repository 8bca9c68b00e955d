// ConservationChecker: the windowed message-conservation invariant.
// Fate-tagged deaths balance, fate-less deaths are lost, and a clean
// PANIC NIC run conserves every message it creates.
#include "fault/invariants.h"

#include <gtest/gtest.h>

#include "core/panic_nic.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace panic::fault {
namespace {

TEST(Conservation, FateLessDestructionIsLostAndFailsVerify) {
  ConservationChecker checker;
  {
    auto msg = make_message();  // dies kInFlight: a silent leak
  }
  const auto d = checker.delta();
  EXPECT_EQ(d.created, 1);
  EXPECT_EQ(d.lost, 1);
  EXPECT_FALSE(checker.verify());
}

TEST(Conservation, EveryFateBalancesTheWindow) {
  ConservationChecker checker;
  const MessageFate fates[] = {MessageFate::kDelivered, MessageFate::kDropped,
                               MessageFate::kConsumed, MessageFate::kFaulted};
  for (const MessageFate fate : fates) {
    auto msg = make_message();
    msg->set_fate(fate);
  }
  const auto d = checker.delta();
  EXPECT_EQ(d.created, 4);
  EXPECT_EQ(d.delivered, 1);
  EXPECT_EQ(d.dropped, 1);
  EXPECT_EQ(d.consumed, 1);
  EXPECT_EQ(d.faulted, 1);
  EXPECT_EQ(d.live, 0);
  EXPECT_EQ(d.lost, 0);
  EXPECT_TRUE(checker.verify());
}

TEST(Conservation, PreWindowMessageDyingInWindowBalances) {
  auto old_msg = make_message();  // created before the window opens
  ConservationChecker checker;
  old_msg->set_fate(MessageFate::kDelivered);
  old_msg.reset();
  // +1 delivered, -1 live, +0 created: signed arithmetic keeps it balanced.
  const auto d = checker.delta();
  EXPECT_EQ(d.created, 0);
  EXPECT_EQ(d.delivered, 1);
  EXPECT_EQ(d.live, -1);
  EXPECT_TRUE(checker.verify());
}

TEST(Conservation, LiveMessagesAccountAsLiveNotLost) {
  ConservationChecker checker;
  std::vector<MessagePtr> held;
  for (int i = 0; i < 3; ++i) held.push_back(make_message());

  auto d = checker.delta();
  EXPECT_EQ(d.created, 3);
  EXPECT_EQ(d.live, 3);
  EXPECT_TRUE(checker.verify());

  for (auto& msg : held) msg->set_fate(MessageFate::kConsumed);
  held.clear();
  d = checker.delta();
  EXPECT_EQ(d.live, 0);
  EXPECT_EQ(d.consumed, 3);
  EXPECT_TRUE(checker.verify());
}

TEST(Conservation, RebaseOpensAFreshWindow) {
  ConservationChecker checker;
  {
    auto msg = make_message();
    msg->set_fate(MessageFate::kDelivered);
  }
  EXPECT_EQ(checker.delta().created, 1);
  checker.rebase();
  EXPECT_EQ(checker.delta().created, 0);
  EXPECT_TRUE(checker.verify());
}

TEST(Conservation, PublishExposesWindowGauges) {
  Simulator sim;
  ConservationChecker checker;
  checker.publish(sim.telemetry());
  {
    auto msg = make_message();
    msg->set_fate(MessageFate::kDelivered);
  }
  const auto snap = sim.telemetry().metrics().snapshot();
  EXPECT_EQ(snap.counter("fault.conservation.created"), 1u);
  EXPECT_EQ(snap.counter("fault.conservation.delivered"), 1u);
  EXPECT_EQ(snap.counter("fault.conservation.lost"), 0u);
  EXPECT_EQ(snap.counter("fault.conservation.conserved"), 1u);
}

TEST(Conservation, CleanPanicNicRunConservesEveryMessage) {
  ConservationChecker checker;
  {
    Simulator sim;
    core::PanicConfig cfg;
    cfg.mesh.k = 4;
    core::PanicNic nic(cfg, sim);

    const Ipv4Addr client(10, 1, 0, 2), server(10, 0, 0, 1);
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(1 + static_cast<Cycle>(i) * 25, [&sim, &nic, client,
                                                       server, i] {
        deliver_frame(nic.eth_port(0),
                      frames::min_udp(client, server,
                                      static_cast<std::uint16_t>(30000 + i),
                                      static_cast<std::uint16_t>(
                                          i % 2 == 0 ? 53 : 4791)),
                      sim.now());
      });
    }
    sim.run(50000);

    const auto d = checker.delta();
    EXPECT_GT(d.created, 0);
    EXPECT_GT(d.delivered, 0);
    EXPECT_EQ(d.lost, 0);
    EXPECT_TRUE(checker.verify_or_log()) << d.to_string();
  }
}

}  // namespace
}  // namespace panic::fault
