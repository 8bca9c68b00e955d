#include "engines/engine.h"

#include <gtest/gtest.h>

#include "engines/delay_engine.h"
#include "engines/pcie_engine.h"
#include "engine_test_util.h"

namespace panic::engines {
namespace {

using testutil::MiniMesh;

MessagePtr packet(std::size_t bytes = 64) {
  auto msg = make_message(MessageKind::kPacket);
  msg->data.resize(bytes);
  return msg;
}

TEST(Engine, ForwardsAlongChainWithServiceDelay) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId worker = m.tile(1, 1);
  const EngineId sink = m.tile(2, 2);

  EngineConfig cfg;
  DelayEngine engine("delay", &m.mesh.ni(worker), cfg, /*fixed=*/50);
  m.sim.add(&engine);

  auto msg = packet();
  msg->chain.push_hop(worker, /*slack=*/5);
  msg->chain.push_hop(sink, /*slack=*/5);
  m.send(std::move(msg), src, worker);

  const auto got = m.collect(sink);
  ASSERT_NE(got, nullptr);
  EXPECT_GE(m.sim.now(), 50u);  // the 50-cycle service happened
  EXPECT_EQ(got->engines_visited, 1u);
  EXPECT_TRUE(got->chain.current().has_value());
  EXPECT_EQ(got->chain.current()->engine, sink);
  EXPECT_EQ(got->slack, 5u);  // adopted from its hop
  EXPECT_EQ(m.sim.snapshot().counter("engine.delay.processed"), 1u);
}

TEST(Engine, ChainExhaustedUsesLookupDefault) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId worker = m.tile(1, 1);
  const EngineId fallback = m.tile(0, 2);

  EngineConfig cfg;
  DelayEngine engine("delay", &m.mesh.ni(worker), cfg, 1);
  engine.lookup_table().set_default(fallback);
  m.sim.add(&engine);

  auto msg = packet();
  msg->chain.push_hop(worker);  // chain ends at the worker
  m.send(std::move(msg), src, worker);

  EXPECT_NE(m.collect(fallback), nullptr);
}

TEST(Engine, NoRouteTerminatesMessage) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId worker = m.tile(1, 1);

  EngineConfig cfg;
  DelayEngine engine("delay", &m.mesh.ni(worker), cfg, 1);
  m.sim.add(&engine);

  auto msg = packet();
  msg->chain.push_hop(worker);
  m.send(std::move(msg), src, worker);
  m.sim.run(1000);
  // Processed, not forwarded.
  EXPECT_EQ(m.sim.snapshot().counter("engine.delay.processed"), 1u);
}

TEST(Engine, KindRouteUsedWhenChainEmpty) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId worker = m.tile(1, 1);
  const EngineId dma_tile = m.tile(2, 0);
  const EngineId fallback = m.tile(0, 2);

  EngineConfig cfg;
  DelayEngine engine("delay", &m.mesh.ni(worker), cfg, 1);
  engine.lookup_table().set_default(fallback);
  engine.lookup_table().set_kind_route(MessageKind::kDmaRead, dma_tile);
  m.sim.add(&engine);

  auto read = make_message(MessageKind::kDmaRead);
  read->chain.push_hop(worker);
  m.send(std::move(read), src, worker);
  EXPECT_NE(m.collect(dma_tile), nullptr);
}

TEST(Engine, SlackPriorityServicesUrgentFirst) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId worker = m.tile(1, 1);
  const EngineId sink = m.tile(2, 2);

  EngineConfig cfg;
  cfg.sched_policy = SchedKind::kSlack;
  DelayEngine engine("delay", &m.mesh.ni(worker), cfg, /*fixed=*/200);
  m.sim.add(&engine);

  // Three bulk messages then one urgent; all arrive while the first is in
  // service.  The urgent one must come out before the remaining bulk.
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 3; ++i) {
    auto bulk = packet();
    bulk->chain.push_hop(worker, /*slack=*/1000);
    bulk->chain.push_hop(sink, 1000);
    bulk->dma_addr = static_cast<std::uint64_t>(i);  // a tag
    m.send(std::move(bulk), src, worker);
    m.sim.run(2);
  }
  auto urgent = packet();
  urgent->chain.push_hop(worker, /*slack=*/1);
  urgent->chain.push_hop(sink, 1);
  urgent->dma_addr = 99;
  m.send(std::move(urgent), src, worker);

  for (int i = 0; i < 4; ++i) {
    const auto got = m.collect(sink);
    ASSERT_NE(got, nullptr);
    order.push_back(got->dma_addr);
  }
  // First bulk was already in service; the urgent message is second.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 99u);
}

TEST(Engine, QueueOverflowDrops) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId worker = m.tile(1, 1);

  EngineConfig cfg;
  cfg.queue_capacity = 2;
  DelayEngine engine("slow", &m.mesh.ni(worker), cfg, /*fixed=*/100000);
  m.sim.add(&engine);

  for (int i = 0; i < 10; ++i) {
    auto msg = packet(16);
    msg->chain.push_hop(worker);
    m.send(std::move(msg), src, worker);
    m.sim.run(50);
  }
  m.sim.run(500);
  EXPECT_GT(engine.queue().dropped(), 0u);
  EXPECT_LE(engine.queue().size(), 2u);
}

TEST(PcieEngineTest, InterruptCoalescing) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId pcie_tile = m.tile(1, 1);

  EngineConfig cfg;
  PcieConfig pcfg;
  pcfg.coalesce_window = 1000;
  PcieEngine pcie("pcie", &m.mesh.ni(pcie_tile), cfg, pcfg);
  m.sim.add(&pcie);

  // 20 interrupts in quick succession -> 1 delivered, 19 coalesced.
  for (int i = 0; i < 20; ++i) {
    auto irq = make_message(MessageKind::kInterrupt);
    m.send(std::move(irq), src, pcie_tile);
    m.sim.run(10);
  }
  m.sim.run(500);
  EXPECT_EQ(pcie.interrupts_delivered(), 1u);
  EXPECT_EQ(pcie.interrupts_coalesced(), 19u);

  // After the window expires, the next interrupt is delivered again.
  m.sim.run(1000);
  auto irq = make_message(MessageKind::kInterrupt);
  m.send(std::move(irq), src, pcie_tile);
  m.sim.run(100);
  EXPECT_EQ(pcie.interrupts_delivered(), 2u);
}

}  // namespace
}  // namespace panic::engines
