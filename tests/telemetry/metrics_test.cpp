// MetricsRegistry / MetricsSnapshot unit tests: registration styles,
// name collisions, reset, snapshot lookups and merge semantics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/stats.h"
#include "telemetry/metrics.h"

namespace panic::telemetry {
namespace {

TEST(MetricsRegistry, OwnedCounterIsStableAndIdempotent) {
  MetricsRegistry m;
  std::uint64_t& a = m.counter("bench.widgets");
  std::uint64_t& b = m.counter("bench.widgets");
  EXPECT_EQ(&a, &b);  // same cell on re-lookup
  a += 3;
  b += 4;
  EXPECT_EQ(m.snapshot().counter("bench.widgets"), 7u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(MetricsRegistry, OwnedCellsSurviveRehash) {
  // The deque must keep cells stable while more names are registered.
  MetricsRegistry m;
  std::uint64_t& first = m.counter("c.0");
  first = 42;
  for (int i = 1; i < 200; ++i) {
    m.counter("c." + std::to_string(i)) = static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(first, 42u);
  EXPECT_EQ(m.snapshot().counter("c.0"), 42u);
  EXPECT_EQ(m.snapshot().counter("c.199"), 199u);
}

TEST(MetricsRegistry, CounterOnOtherKindThrows) {
  MetricsRegistry m;
  m.expose_gauge("depth", [] { return 5.0; });
  EXPECT_THROW(m.counter("depth"), std::logic_error);
}

TEST(MetricsRegistry, CollisionFirstWins) {
  MetricsRegistry m;
  std::uint64_t cell1 = 10, cell2 = 99;
  EXPECT_TRUE(m.expose_counter("engine.x.processed", &cell1));
  EXPECT_FALSE(m.expose_counter("engine.x.processed", &cell2));
  EXPECT_FALSE(m.expose_gauge("engine.x.processed", [] { return 0.0; }));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.snapshot().counter("engine.x.processed"), 10u);
}

TEST(MetricsRegistry, ResetZeroesCountersAndHistogramsNotGauges) {
  MetricsRegistry m;
  std::uint64_t exposed = 7;
  Histogram hist;
  hist.record(100);
  hist.record(200);
  double gauge_value = 3.5;
  m.expose_counter("a.exposed", &exposed);
  m.expose_histogram("a.lat", &hist);
  m.expose_gauge("a.depth", [&] { return gauge_value; });
  m.counter("a.owned") = 11;

  m.reset();

  const auto snap = m.snapshot();
  EXPECT_EQ(exposed, 0u);
  EXPECT_EQ(snap.counter("a.exposed"), 0u);
  EXPECT_EQ(snap.counter("a.owned"), 0u);
  EXPECT_EQ(snap.at("a.lat").count, 0u);
  EXPECT_DOUBLE_EQ(snap.value("a.depth"), 3.5);  // gauges untouched
}

TEST(MetricsSnapshot, LookupsAndSum) {
  MetricsRegistry m;
  m.counter("noc.router.0.flits") = 5;
  m.counter("noc.router.1.flits") = 7;
  m.counter("noc.router.1.stall_cycles") = 100;
  const auto snap = m.snapshot();

  EXPECT_TRUE(snap.has("noc.router.0.flits"));
  EXPECT_FALSE(snap.has("noc.router.2.flits"));
  EXPECT_EQ(snap.find("nope"), nullptr);
  EXPECT_EQ(snap.counter("nope"), 0u);  // absent reads zero
  EXPECT_THROW(snap.at("nope"), std::out_of_range);
  EXPECT_EQ(snap.at("noc.router.1.flits").value, 7.0);

  EXPECT_DOUBLE_EQ(snap.sum("noc.router.", ".flits"), 12.0);
  EXPECT_DOUBLE_EQ(snap.sum("noc.router.1."), 107.0);
  EXPECT_DOUBLE_EQ(snap.sum("", ".flits"), 12.0);
}

TEST(MetricsSnapshot, SnapshotIsDetached) {
  MetricsRegistry m;
  std::uint64_t& c = m.counter("x");
  c = 1;
  const auto snap = m.snapshot();
  c = 100;
  EXPECT_EQ(snap.counter("x"), 1u);  // point-in-time copy
  EXPECT_EQ(m.snapshot().counter("x"), 100u);
}

TEST(MetricsSnapshot, MergeAddsCountersAndCombinesHistograms) {
  MetricsRegistry a, b;
  a.counter("pkts") = 10;
  b.counter("pkts") = 32;
  b.counter("only_b") = 5;

  Histogram ha, hb;
  ha.record(10);
  ha.record(20);  // count 2, mean 15, max 20
  hb.record(100);
  hb.record(200);  // count 2, mean 150, max 200
  a.expose_histogram("lat", &ha);
  b.expose_histogram("lat", &hb);

  a.expose_gauge("depth", [] { return 1.0; });
  b.expose_gauge("depth", [] { return 9.0; });

  auto merged = a.snapshot();
  merged.merge(b.snapshot());

  EXPECT_EQ(merged.counter("pkts"), 42u);
  EXPECT_EQ(merged.counter("only_b"), 5u);  // appended from other
  const auto& lat = merged.at("lat");
  EXPECT_EQ(lat.count, 4u);
  EXPECT_DOUBLE_EQ(lat.mean, (15.0 * 2 + 150.0 * 2) / 4.0);
  EXPECT_EQ(lat.min, 10u);
  EXPECT_EQ(lat.max, 200u);
  EXPECT_GE(lat.p99, std::max(ha.p99(), hb.p99()));  // pessimistic bound
  EXPECT_DOUBLE_EQ(merged.value("depth"), 9.0);  // latest gauge sample wins
}

TEST(MetricsRegistry, CounterSumMergesCellsAtSnapshot) {
  // The sharded-kernel publication contract: one cell per shard, each
  // written by exactly one thread, summed only at snapshot time.
  MetricsRegistry m;
  std::uint64_t serial = 2, shard0 = 40, shard1 = 100;
  EXPECT_TRUE(m.expose_counter_sum("kernel.ticks", {&serial, &shard0, &shard1}));
  EXPECT_EQ(m.snapshot().counter("kernel.ticks"), 142u);

  shard1 += 8;
  EXPECT_EQ(m.snapshot().counter("kernel.ticks"), 150u);

  // reset() zeroes every cell so windowed measurement still works.
  m.reset();
  EXPECT_EQ(serial, 0u);
  EXPECT_EQ(shard0, 0u);
  EXPECT_EQ(shard1, 0u);
  EXPECT_EQ(m.snapshot().counter("kernel.ticks"), 0u);
}

TEST(MetricsRegistry, DuplicateCellPublicationIsRejected) {
  // A cell published under two metrics would mean two shards write one
  // counter; claim_cell refuses the second registration (and asserts in
  // debug builds, so there the refusal is fatal).
  MetricsRegistry m;
  std::uint64_t cell = 7;
  EXPECT_TRUE(m.expose_counter("first", &cell));
#ifdef NDEBUG
  EXPECT_FALSE(m.expose_counter("second", &cell));
  std::uint64_t other = 1;
  EXPECT_FALSE(m.expose_counter_sum("third", {&other, &cell}));
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(m.expose_counter("second", &cell), "published twice");
#endif
}

TEST(MetricsSnapshot, CsvHasHeaderAndOneRowPerMetric) {
  MetricsRegistry m;
  m.counter("a") = 1;
  m.counter("b") = 2;
  const std::string csv = m.snapshot().to_csv();
  EXPECT_NE(csv.find("name,kind,value,count,mean,min,max,p50,p90,p99,p999"),
            std::string::npos);
  EXPECT_NE(csv.find("a,counter,1"), std::string::npos);
  EXPECT_NE(csv.find("b,counter,2"), std::string::npos);
}

TEST(MetricsSnapshot, MergeKeepsNamesAndLookupsInStep) {
  // A snapshot stores names in one buffer and values in compact cells; it
  // builds its lookup index and its named entries on first use.  Merges
  // after either cache is filled must leave names, values and lookups
  // agreeing.
  MetricsRegistry a, b, c;
  a.counter("a.first") = 1;
  for (int i = 0; i < 100; ++i) b.counter("b." + std::to_string(i)) = i;
  c.counter("c.late") = 3;

  auto merged = a.snapshot();
  EXPECT_TRUE(merged.has("a.first"));  // index built over one entry
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counter("b.99"), 99u);
  EXPECT_EQ(merged.at("b.57").value, 57.0);
  EXPECT_FALSE(merged.has("b.100"));

  ASSERT_EQ(merged.entries().size(), 101u);
  EXPECT_EQ(merged.entries().front().name, "a.first");
  EXPECT_EQ(merged.entries()[58].name, "b.57");
  merged.merge(c.snapshot());  // appended after the names were built
  merged.merge(b.snapshot());  // adds into existing entries
  EXPECT_EQ(merged.entries().back().name, "c.late");
  EXPECT_EQ(merged.counter("b.99"), 198u);
  EXPECT_EQ(merged.sum("b."), 2.0 * (99 * 100 / 2));
  EXPECT_TRUE(merged.diff_names(merged).empty());
}

}  // namespace
}  // namespace panic::telemetry
