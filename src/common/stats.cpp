#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace panic {

Histogram::Histogram() : buckets_(kMagnitudes * kSubBuckets, 0) {}

std::uint32_t Histogram::bucket_index(std::uint64_t value) {
  // Values below kSubBuckets map linearly into magnitude 0.
  if (value < kSubBuckets) return static_cast<std::uint32_t>(value);
  const auto msb = static_cast<std::uint32_t>(63 - std::countl_zero(value));
  const std::uint32_t magnitude = msb - kSubBucketBits + 1;
  const auto sub =
      static_cast<std::uint32_t>(value >> (msb - kSubBucketBits)) &
      (kSubBuckets - 1);
  return magnitude * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_low(std::uint32_t index) {
  const std::uint32_t magnitude = index / kSubBuckets;
  const std::uint32_t sub = index % kSubBuckets;
  if (magnitude == 0) return sub;
  const std::uint32_t shift = magnitude - 1;
  return (static_cast<std::uint64_t>(kSubBuckets + sub)) << shift;
}

std::uint64_t Histogram::bucket_mid(std::uint32_t index) {
  const std::uint64_t lo = bucket_low(index);
  const std::uint64_t hi =
      (index + 1 < kMagnitudes * kSubBuckets) ? bucket_low(index + 1) : lo + 1;
  return lo + (hi - lo) / 2;
}

void Histogram::record(std::uint64_t value) { record_n(value, 1); }

void Histogram::record_n(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  if (total_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  buckets_[bucket_index(value)] += count;
  total_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
}

double Histogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

std::uint64_t Histogram::quantile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::clamp(bucket_mid(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  total_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
}

std::string Histogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%llu p99=%llu p999=%llu max=%llu",
                static_cast<unsigned long long>(total_), mean(),
                static_cast<unsigned long long>(p50()),
                static_cast<unsigned long long>(p99()),
                static_cast<unsigned long long>(p999()),
                static_cast<unsigned long long>(max()));
  return buf;
}

}  // namespace panic
