#include "rmt/action.h"

#include <gtest/gtest.h>

namespace panic::rmt {
namespace {

struct ActionFixture {
  Phv phv;
  ChainHeader chain;
  RegisterFile regs;
  ActionContext ctx{phv, chain, regs};
};

TEST(Action, SetAndCopyFields) {
  ActionFixture f;
  f.phv.set_parsed(Field::kIpSrc, 99);
  Action a("a");
  a.set_field(Field::kMetaQueue, 7).copy_field(Field::kMetaTenant,
                                               Field::kIpSrc);
  apply_action(a, f.ctx);
  EXPECT_EQ(f.phv.get(Field::kMetaQueue), 7u);
  EXPECT_EQ(f.phv.get(Field::kMetaTenant), 99u);
  EXPECT_TRUE(f.phv.modified(Field::kMetaQueue));
}

TEST(Action, HashIsDeterministicAndBounded) {
  ActionFixture f;
  f.phv.set_parsed(Field::kIpSrc, 0x0A000001);
  f.phv.set_parsed(Field::kL4SrcPort, 40000);
  Action a("lb");
  a.hash_fields(Field::kMetaQueue, Field::kIpSrc, Field::kL4SrcPort, 8);
  apply_action(a, f.ctx);
  const auto q1 = f.phv.get(Field::kMetaQueue);
  EXPECT_LT(q1, 8u);
  apply_action(a, f.ctx);
  EXPECT_EQ(f.phv.get(Field::kMetaQueue), q1);  // deterministic

  // Different flow -> (almost certainly) different spread over many flows.
  int distinct = 0;
  std::uint64_t seen[8] = {0};
  for (int flow = 0; flow < 64; ++flow) {
    f.phv.set_parsed(Field::kL4SrcPort, 40000 + static_cast<std::uint64_t>(flow));
    apply_action(a, f.ctx);
    seen[f.phv.get(Field::kMetaQueue)]++;
  }
  for (auto c : seen) {
    if (c > 0) ++distinct;
  }
  EXPECT_GE(distinct, 6);  // well spread across 8 queues
}

TEST(Action, ChainConstruction) {
  ActionFixture f;
  Action a("chain");
  a.set_slack(42).push_hop(5).push_hop(9);
  apply_action(a, f.ctx);
  ASSERT_EQ(f.chain.total_hops(), 2u);
  EXPECT_EQ(f.chain.hops()[0].engine, EngineId{5});
  EXPECT_EQ(f.chain.hops()[0].slack, 42u);
  EXPECT_EQ(f.chain.hops()[1].engine, EngineId{9});
}

TEST(Action, PushHopFromField) {
  ActionFixture f;
  f.phv.set_parsed(Field::kMetaEgressPort, 3);
  Action a("egress");
  a.set_slack(7).push_hop_from(Field::kMetaEgressPort);
  apply_action(a, f.ctx);
  ASSERT_EQ(f.chain.total_hops(), 1u);
  EXPECT_EQ(f.chain.hops()[0].engine, EngineId{3});
  EXPECT_EQ(f.chain.hops()[0].slack, 7u);
}

TEST(Action, PushHopFromFieldOffTheMeshDrops) {
  // A 4x4 mesh: tile 15 is the last hop a field may name; 16 and a value
  // that would wrap the 16-bit engine id to tile 0 mark the message
  // dropped instead.
  for (const std::uint64_t tile : {15ull, 16ull, 65536ull}) {
    SCOPED_TRACE(tile);
    ActionFixture f;
    f.ctx.tiles = 16;
    f.phv.set_parsed(Field::kMetaQueue, tile);
    Action a("a");
    a.push_hop_from(Field::kMetaQueue);
    apply_action(a, f.ctx);
    const bool on_mesh = tile < 16;
    EXPECT_EQ(f.chain.total_hops(), on_mesh ? 1u : 0u);
    EXPECT_EQ(f.phv.get(Field::kMetaDrop), on_mesh ? 0u : 1u);
  }
}

TEST(Action, ClearChain) {
  ActionFixture f;
  Action a("a");
  a.push_hop(1).clear_chain().push_hop(2);
  apply_action(a, f.ctx);
  ASSERT_EQ(f.chain.total_hops(), 1u);
  EXPECT_EQ(f.chain.hops()[0].engine, EngineId{2});
}

TEST(Action, MarkDrop) {
  ActionFixture f;
  Action a("drop");
  a.mark_drop();
  apply_action(a, f.ctx);
  EXPECT_EQ(f.phv.get(Field::kMetaDrop), 1u);
}

TEST(Action, RegisterAddForCounters) {
  ActionFixture f;
  f.phv.set_parsed(Field::kMetaTenant, 4);
  Action a("count");
  a.reg_add(Field::kMetaCacheHint, /*reg=*/0, Field::kMetaTenant, 1);
  apply_action(a, f.ctx);
  apply_action(a, f.ctx);
  apply_action(a, f.ctx);
  EXPECT_EQ(f.phv.get(Field::kMetaCacheHint), 3u);
  EXPECT_EQ(f.regs.add(0, 4, 0), 3u);
}

TEST(RegisterFile, IndexWrapsAndBoundsChecked) {
  RegisterFile regs(2, 8);
  regs.add(0, 9, 5);  // index 9 wraps to 1
  EXPECT_EQ(regs.add(0, 1, 0), 5u);
  EXPECT_EQ(regs.add(99, 0, 1), 0u);  // out-of-range register: ignored
  EXPECT_EQ(regs.add(1, 1, 0), 0u);
}

}  // namespace
}  // namespace panic::rmt
