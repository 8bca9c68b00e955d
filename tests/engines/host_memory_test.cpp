#include "engines/host_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engines/lookup_table.h"

namespace panic::engines {
namespace {

TEST(HostMemory, WriteReadRoundTrip) {
  HostMemory mem;
  const std::vector<std::uint8_t> data = {1, 2, 3, 4};
  mem.write(0x1000, data);
  EXPECT_EQ(mem.read(0x1000, 4), data);
  EXPECT_EQ(mem.bytes_written(), 4u);
}

TEST(HostMemory, UntouchedReadsAreDeterministic) {
  HostMemory a, b;
  EXPECT_EQ(a.read(0x9999, 16), b.read(0x9999, 16));
  EXPECT_NE(a.read(0x9999, 16), a.read(0xAAAA, 16));
}

TEST(HostMemory, PartialOverwrite) {
  HostMemory mem;
  const HostMemory fresh;
  mem.write(0x100, std::vector<std::uint8_t>{1, 1, 1, 1});
  mem.write(0x102, std::vector<std::uint8_t>{9});
  const auto got = mem.read(0x100, 4);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 1, 9, 1}));

  // A fully written 64-byte word, then ten bytes of it overwritten.
  const std::uint64_t word = 0x5040;
  std::vector<std::uint8_t> expect(64, 0xAB);
  mem.write(word, expect);
  mem.write(word + 10, std::vector<std::uint8_t>(10, 0xCD));
  std::fill(expect.begin() + 10, expect.begin() + 20, 0xCD);
  EXPECT_EQ(mem.read(word, 64), expect);
  EXPECT_EQ(mem.read(word + 15, 10),
            std::vector<std::uint8_t>(expect.begin() + 15,
                                      expect.begin() + 25));
  // A word written in two separate runs keeps the fill in its holes.
  const std::uint64_t holes = word + 64;
  mem.write(holes + 3, std::vector<std::uint8_t>(5, 0x11));
  mem.write(holes + 40, std::vector<std::uint8_t>(24, 0x22));
  auto want = fresh.read(holes, 64);
  std::fill(want.begin() + 3, want.begin() + 8, 0x11);
  std::fill(want.begin() + 40, want.end(), 0x22);
  EXPECT_EQ(mem.read(holes, 64), want);
}

TEST(HostMemory, AllocatorAlignsAndAdvances) {
  HostMemory mem;
  const auto a = mem.allocate(10);
  const auto b = mem.allocate(100);
  // The addresses are observable (TX descriptor addresses seed the host
  // driver's retry backoff), so they are pinned, not just well-formed.
  EXPECT_EQ(a, 0x100000u);
  EXPECT_EQ(b, 0x100040u);
  EXPECT_EQ(mem.allocate(1), 0x1000c0u);
}

TEST(HostMemory, WritesStraddlingWordsAndPagesReadBackExactly) {
  HostMemory mem;
  const HostMemory fresh;
  // 300 bytes from 100 below a page boundary: a partial first word, whole
  // words, the page break, and a partial last word.
  const std::uint64_t addr = 0x23000 - 100;
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  mem.write(addr, data);
  EXPECT_EQ(mem.read(addr, 300), data);
  // Untouched neighbours on both sides still read the deterministic fill,
  // in reads that cover written and unwritten bytes of one word.
  EXPECT_EQ(mem.read(addr - 70, 70), fresh.read(addr - 70, 70));
  EXPECT_EQ(mem.read(addr + 300, 70), fresh.read(addr + 300, 70));
  auto around = fresh.read(addr - 70, 440);
  std::copy(data.begin(), data.end(), around.begin() + 70);
  EXPECT_EQ(mem.read(addr - 70, 440), around);
  EXPECT_EQ(mem.pages_resident(), 2u);
}

TEST(HostMemory, DeliveriesAreCountedNotStored) {
  HostMemory mem;
  mem.write(0x1000, std::vector<std::uint8_t>(100, 0x5A));
  const std::size_t pages = mem.pages_resident();
  for (int i = 0; i < 1000; ++i) mem.count_delivery(1500);
  EXPECT_EQ(mem.bytes_written(), 100u + 1000u * 1500u);
  EXPECT_EQ(mem.pages_resident(), pages);
}

TEST(LocalLookupTable, ChainHopWinsOverEverything) {
  LocalLookupTable t;
  t.set_default(EngineId{9});
  t.set_kind_route(MessageKind::kDmaRead, EngineId{5});
  auto msg = make_message(MessageKind::kDmaRead);
  msg->chain.push_hop(EngineId{3});
  EXPECT_EQ(t.route(*msg), EngineId{3});
}

TEST(LocalLookupTable, KindRouteBeforeDefault) {
  LocalLookupTable t;
  t.set_default(EngineId{9});
  t.set_kind_route(MessageKind::kDmaRead, EngineId{5});
  const auto read = make_message(MessageKind::kDmaRead);
  EXPECT_EQ(t.route(*read), EngineId{5});
  const auto pkt = make_message(MessageKind::kPacket);
  EXPECT_EQ(t.route(*pkt), EngineId{9});
}

TEST(LocalLookupTable, NoRouteReturnsNullopt) {
  LocalLookupTable t;
  const auto msg = make_message();
  EXPECT_FALSE(t.route(*msg).has_value());
  EXPECT_FALSE(t.has_default());
}

}  // namespace
}  // namespace panic::engines
