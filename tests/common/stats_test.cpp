#include "common/stats.h"

#include <gtest/gtest.h>

namespace panic {
namespace {

TEST(Histogram, Empty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.p50(), 100u);
  EXPECT_EQ(h.p99(), 100u);
}

TEST(Histogram, SmallValuesAreExact) {
  // Values below the sub-bucket count land in exact unit buckets.
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
}

TEST(Histogram, QuantilesOrdered) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), h.max());
}

TEST(Histogram, QuantileRelativeErrorBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  // Log-linear bucketing with 32 sub-buckets: ~3% relative error.
  EXPECT_NEAR(static_cast<double>(h.p50()), 50000.0, 50000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.p99()), 99000.0, 99000.0 * 0.05);
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  h.record_n(10, 3);
  h.record(40);
  EXPECT_DOUBLE_EQ(h.mean(), 70.0 / 4.0);
}

TEST(Histogram, HugeValues) {
  Histogram h;
  h.record(1ull << 60);
  h.record(1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 1ull << 60);
  EXPECT_GE(h.quantile(1.0), (1ull << 60) * 97 / 100);
}

TEST(RateMeter, Rates) {
  // The counts a rate is computed from: 1000 minimum-size packets.
  RateMeter m;
  for (int i = 0; i < 1000; ++i) m.add_packet(64);
  EXPECT_EQ(m.packets(), 1000u);
  EXPECT_EQ(m.bytes(), 64000u);
}

TEST(RateMeter, ZeroElapsed) {
  // A meter that has seen nothing reads zero; one packet counts once.
  RateMeter m;
  EXPECT_EQ(m.packets(), 0u);
  EXPECT_EQ(m.bytes(), 0u);
  m.add_packet(100);
  EXPECT_EQ(m.packets(), 1u);
  EXPECT_EQ(m.bytes(), 100u);
}

}  // namespace
}  // namespace panic
