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

TEST(MetricsRegistry, DuplicateCellPublicationIsRejected) {
  // A cell published under two metrics would be counted twice;
  // claim_cell refuses the second registration (and asserts in debug
  // builds, so there the refusal is fatal).
  MetricsRegistry m;
  std::uint64_t cell = 7;
  EXPECT_TRUE(m.expose_counter("first", &cell));
#ifdef NDEBUG
  EXPECT_FALSE(m.expose_counter("second", &cell));
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(m.expose_counter("second", &cell), "published twice");
#endif
}

}  // namespace
}  // namespace panic::telemetry
