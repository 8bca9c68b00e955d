#include "rmt/flow_cache.h"

#include <gtest/gtest.h>

#include "fault/steering.h"
#include "net/packet.h"
#include "rmt/p4lite.h"

namespace panic::rmt {
namespace {

const Ipv4Addr kSrc(10, 0, 0, 1);
const Ipv4Addr kDst(10, 0, 0, 2);

constexpr std::uint64_t bit(Field f) {
  return 1ull << static_cast<std::size_t>(f);
}

std::shared_ptr<const RmtProgram> compile(const std::string& stages) {
  std::string error;
  auto program = compile_p4lite(
      "parser default;\n" + stages,
      {{"e7", 7}, {"host_a", 30}, {"host_b", 31}, {"kvs", 40}}, &error);
  EXPECT_TRUE(program.has_value()) << error;
  return std::make_shared<const RmtProgram>(std::move(program.value()));
}

/// A cacheable program: one exact table keyed on the UDP source port.
std::shared_ptr<const RmtProgram> sport_program() {
  return compile(
      "stage s { table t exact(l4.sport) { 1 -> set(meta.queue, 3); } }");
}

/// The steering program of pipeline_test: slack by tenant, chain by class.
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

TEST(FlowCacheKeyMask, UnionsTableKeysAndActionReads) {
  // The entry action reads kL4SrcPort (copy source); the default action
  // read-modify-writes kMetaSlack (an expression operand).
  const auto program = compile(R"(stage s {
    table t exact(meta.tenant) {
      1 -> copy(meta.queue, l4.sport);
      default -> set_expr(meta.slack, meta.slack + 5);
    }
  })");

  bool cacheable = false;
  const std::uint64_t mask = FlowCache::derive_key_mask(*program, &cacheable);
  EXPECT_TRUE(cacheable);
  EXPECT_TRUE(mask & bit(Field::kMetaTenant));   // table key
  EXPECT_TRUE(mask & bit(Field::kL4SrcPort));    // copy source
  EXPECT_TRUE(mask & bit(Field::kMetaSlack));    // expression operand
  EXPECT_FALSE(mask & bit(Field::kIpDst));       // never referenced
  EXPECT_FALSE(mask & bit(Field::kMetaQueue));   // written, not read
}

TEST(FlowCacheKeyMask, ChainHopsImplyMetaSlackRead) {
  // Every pushed hop carries phv[kMetaSlack], so any chain-building
  // program keys on it even without an explicit slack reference.
  const auto program =
      compile("stage s { table t exact(l4.dport) { 9 -> chain(e7); } }");

  bool cacheable = false;
  const std::uint64_t mask = FlowCache::derive_key_mask(*program, &cacheable);
  EXPECT_TRUE(cacheable);
  EXPECT_TRUE(mask & bit(Field::kMetaSlack));
}

TEST(FlowCacheKeyMask, HashSourcesEnterTheMask) {
  const auto program = compile(R"(stage s {
    table t ternary(valid_ipv4) {
      1 prio 1 -> lb(meta.queue, ipv4.src, l4.sport, 8);
    }
  })");

  bool cacheable = false;
  const std::uint64_t mask = FlowCache::derive_key_mask(*program, &cacheable);
  EXPECT_TRUE(cacheable);
  EXPECT_TRUE(mask & bit(Field::kIpSrc));
  EXPECT_TRUE(mask & bit(Field::kL4SrcPort));
}

TEST(FlowCacheKeyMask, RegisterProgramsAreUncacheable) {
  const auto program = compile(R"(stage lb {
    table lb ternary(valid_ipv4) {
      1 prio 1 -> reg_add(meta.queue, 0, valid_eth, 1);
    }
  })");

  bool cacheable = true;
  FlowCache::derive_key_mask(*program, &cacheable);
  EXPECT_FALSE(cacheable);

  // The cache deactivates itself: every lookup misses, inserts are no-ops.
  FlowCache cache(FlowCacheConfig{}, *program);
  EXPECT_FALSE(cache.active());
  Phv phv;
  phv.set_parsed(Field::kValidIpv4, 1);
  EXPECT_EQ(cache.lookup(phv), nullptr);
  cache.insert({1}, phv, ChainHeader{});
  EXPECT_EQ(cache.lookup(phv), nullptr);
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().inserts, 0u);
}

TEST(FlowCacheLru, EvictsLeastRecentlyUsedWithinSet) {
  auto program = sport_program();
  FlowCacheConfig cfg;
  cfg.sets = 1;  // everything collides into one set
  cfg.ways = 2;
  FlowCache cache(cfg, *program);
  ASSERT_TRUE(cache.active());

  // lookup() latches the set/key for the insert() that follows, exactly
  // like the pipeline's miss path.
  const auto touch = [&](std::uint64_t sport) {
    Phv phv;
    phv.set_parsed(Field::kL4SrcPort, sport);
    if (cache.lookup(phv) != nullptr) return true;
    cache.insert({0}, phv, ChainHeader{});
    return false;
  };

  EXPECT_FALSE(touch(1));
  EXPECT_FALSE(touch(2));
  EXPECT_TRUE(touch(1));  // both resident
  EXPECT_TRUE(touch(2));
  EXPECT_FALSE(touch(3));  // full set: evicts LRU (flow 1)
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_FALSE(touch(1));  // flow 1 is gone; this in turn evicts flow 2
  EXPECT_TRUE(touch(3));   // flow 3 survived as the recently-used way
  EXPECT_EQ(cache.counters().evictions, 2u);
}

TEST(FlowCacheInvalidation, SteeringResteerFlushes) {
  auto program = sport_program();
  FlowCache cache(FlowCacheConfig{}, *program);

  fault::SteeringDirectory steering;
  steering.add_equivalence_group({EngineId{20}, EngineId{21}});
  // set_steering snapshots the current generation: attaching a directory
  // with history must not flush anything by itself.
  cache.set_steering(&steering);

  const auto touch = [&](std::uint64_t sport) {
    Phv phv;
    phv.set_parsed(Field::kL4SrcPort, sport);
    if (cache.lookup(phv) != nullptr) return true;
    cache.insert({0}, phv, ChainHeader{});
    return false;
  };

  EXPECT_FALSE(touch(1));
  cache.refresh_generations();
  EXPECT_TRUE(touch(1));
  EXPECT_EQ(cache.counters().flushes, 0u);

  // An engine death re-steers chains; every memoized chain must go.
  steering.mark_dead(EngineId{20});
  cache.refresh_generations();
  EXPECT_EQ(cache.counters().flushes, 1u);
  EXPECT_FALSE(touch(1));
}

TEST(FlowCachePipeline, HitReplaysBitIdenticalResolution) {
  // Two pipelines compiled from identical programs, one cached, one not:
  // every observable output (chain, meta, rewritten bytes, drop/queue,
  // per-table tallies) must agree frame for frame.
  Pipeline cached(steering_program());
  Pipeline plain(steering_program());
  cached.enable_flow_cache(FlowCacheConfig{});
  ASSERT_NE(cached.flow_cache(), nullptr);
  ASSERT_TRUE(cached.flow_cache()->active());

  const std::vector<std::vector<std::uint8_t>> frames_set = {
      frames::min_udp(kSrc, kDst, 40000, 9),
      frames::min_udp(kSrc, kDst, 40001, 9),
      frames::kvs_get(kSrc, kDst, 1, 5, 9),
  };
  // Two passes so the second round hits the cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& frame : frames_set) {
      auto a = packet_message(frame);
      auto b = packet_message(frame);
      const auto ra = cached.process(*a);
      const auto rb = plain.process(*b);
      EXPECT_EQ(ra.parsed, rb.parsed);
      EXPECT_EQ(ra.drop, rb.drop);
      EXPECT_EQ(ra.queue, rb.queue);
      EXPECT_EQ(a->data, b->data);
      EXPECT_EQ(a->tenant.value, b->tenant.value);
      ASSERT_EQ(a->chain.total_hops(), b->chain.total_hops());
      for (std::size_t h = 0; h < a->chain.total_hops(); ++h) {
        EXPECT_EQ(a->chain.hops()[h].engine, b->chain.hops()[h].engine);
        EXPECT_EQ(a->chain.hops()[h].slack, b->chain.hops()[h].slack);
      }
      EXPECT_EQ(a->meta_valid, b->meta_valid);
      EXPECT_EQ(a->meta.is_kvs, b->meta.is_kvs);
      EXPECT_EQ(a->meta.kvs_key, b->meta.kvs_key);
      EXPECT_EQ(a->meta.udp_dst_port, b->meta.udp_dst_port);
    }
  }
  EXPECT_GE(cached.flow_cache()->counters().hits, 3u);

  // Table tallies replayed on the hit path match the real walk's.
  for (std::size_t si = 0; si < cached.program().stages.size(); ++si) {
    const auto& sa = cached.program().stages[si];
    const auto& sb = plain.program().stages[si];
    for (std::size_t ti = 0; ti < sa.tables.size(); ++ti) {
      EXPECT_EQ(sa.tables[ti].hits(), sb.tables[ti].hits());
      EXPECT_EQ(sa.tables[ti].misses(), sb.tables[ti].misses());
    }
  }
}

}  // namespace
}  // namespace panic::rmt
