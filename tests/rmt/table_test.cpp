#include "rmt/table.h"

#include <gtest/gtest.h>

#include "rmt/p4lite.h"

namespace panic::rmt {
namespace {

Phv phv_with(Field f, std::uint64_t v) {
  Phv phv;
  phv.set_parsed(f, v);
  return phv;
}

/// The one table of a one-stage p4lite program.
MatchTable compile_table(const std::string& table) {
  std::string error;
  const auto program = compile_p4lite(
      "parser default; stage s { " + table + " }", {}, &error);
  EXPECT_TRUE(program.has_value()) << error;
  return program.value().stages.at(0).tables.at(0);
}

/// N of the set(meta.queue, N) action `t` picks for `phv`; -1 when it
/// picks none.
int queue(const MatchTable& t, const Phv& phv) {
  const Action* a = t.lookup(phv);
  return a == nullptr ? -1 : static_cast<int>(a->primitives.at(0).imm);
}

TEST(MatchTable, ExactHitAndMiss) {
  const MatchTable t = compile_table(R"(table t exact(l4.dport) {
    80 -> set(meta.queue, 1);
    443 -> set(meta.queue, 2);
  })");
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 80)), 1);
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 22)), -1);
  EXPECT_EQ(t.hits(), 1u);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(MatchTable, DefaultActionOnMiss) {
  const MatchTable t = compile_table(
      "table t exact(l4.dport) { default -> set(meta.queue, 7); }");
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 9)), 7);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(MatchTable, MultiFieldExact) {
  // Each case's two keys differ in both words.  The second case's keys
  // hash alike under the 64-bit key hash, so an index keyed by the hash
  // alone would hide the first entry.
  struct Key {
    std::uint64_t tenant, hint;
  };
  const std::pair<Key, Key> cases[] = {
      {{17, 53}, {6, 80}},
      {{1, 0xaf63bf49fd1c4121}, {2, 0xaf63bc49fd1c5448}},
  };
  for (const auto& [a, b] : cases) {
    MatchTable t("t", MatchKind::kExact,
                 {Field::kMetaTenant, Field::kMetaCacheHint});
    for (const auto& [key, name] : {std::pair{a, "a"}, std::pair{b, "b"}}) {
      TableEntry e;
      e.key = {key.tenant, key.hint};
      e.action = Action(name);
      t.add_entry(std::move(e));
    }
    const auto lookup = [&](std::uint64_t tenant, std::uint64_t hint) {
      Phv phv;
      phv.set_parsed(Field::kMetaTenant, tenant);
      phv.set_parsed(Field::kMetaCacheHint, hint);
      const Action* action = t.lookup(phv);
      return action == nullptr ? std::string("miss") : action->name;
    };
    EXPECT_EQ(lookup(a.tenant, a.hint), "a") << a.hint;
    EXPECT_EQ(lookup(b.tenant, b.hint), "b") << b.hint;
    EXPECT_EQ(lookup(a.tenant, b.hint), "miss") << b.hint;
  }
}

TEST(MatchTable, LpmPrefersLongestPrefix) {
  const MatchTable t = compile_table(R"(table t lpm(ipv4.dst) {
    10.0.0.0/8 -> set(meta.queue, 8);
    10.1.0.0/16 -> set(meta.queue, 16);
    10.1.2.0/24 -> set(meta.queue, 24);
  })");
  EXPECT_EQ(queue(t, phv_with(Field::kIpDst, 0x0A010203)), 24);
  EXPECT_EQ(queue(t, phv_with(Field::kIpDst, 0x0A01FF01)), 16);
  EXPECT_EQ(queue(t, phv_with(Field::kIpDst, 0x0AFF0001)), 8);
  EXPECT_EQ(queue(t, phv_with(Field::kIpDst, 0x0B000001)), -1);
}

TEST(MatchTable, LpmDefaultRoute) {
  const MatchTable t = compile_table(
      "table t lpm(ipv4.dst) { 0.0.0.0/0 -> set(meta.queue, 1); }");
  EXPECT_EQ(queue(t, phv_with(Field::kIpDst, 0x12345678)), 1);
}

TEST(MatchTable, TernaryPriorityOrder) {
  const MatchTable t = compile_table(R"(table t ternary(l4.dport) {
    0/0 prio 1 -> set(meta.queue, 1);
    0x50/0xFFFF prio 10 -> set(meta.queue, 80);
  })");
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 80)), 80);
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 81)), 1);
}

TEST(MatchTable, TernaryMaskedBitsIgnored) {
  // Any even port.
  const MatchTable t = compile_table(
      "table t ternary(l4.dport) { 0/1 prio 5 -> set(meta.queue, 2); }");
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 8080)), 2);
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 8081)), -1);
}

TEST(MatchTable, TernaryInsertionOrderStableWithinPriority) {
  const MatchTable t = compile_table(R"(table t ternary(l4.dport) {
    0/0 prio 5 -> set(meta.queue, 1);
    0/0 prio 5 -> set(meta.queue, 2);
  })");
  EXPECT_EQ(queue(t, phv_with(Field::kL4DstPort, 1)), 1);
}

TEST(MatchTable, InvalidFieldsReadAsZero) {
  const MatchTable t =
      compile_table("table t exact(kvs.key) { 0 -> set(meta.queue, 3); }");
  EXPECT_EQ(queue(t, Phv()), 3);  // kKvsKey never parsed
}

}  // namespace
}  // namespace panic::rmt
