// Measurement utilities used by every benchmark: log-bucketed latency
// histograms with percentile queries and packet/byte rate meters.  Both
// are allocation-free on the hot path.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace panic {

/// Latency histogram with HdrHistogram-style log-linear buckets: values are
/// grouped by power-of-two magnitude, with `kSubBuckets` linear sub-buckets
/// per magnitude, giving a bounded relative error (~1/kSubBuckets) across a
/// huge dynamic range.  Records integer values (we use cycles).
class Histogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 5;  // 32 sub-buckets ≈ 3% err
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr std::uint32_t kMagnitudes = 64 - kSubBucketBits;

  Histogram();

  void record(std::uint64_t value);
  void record_n(std::uint64_t value, std::uint64_t count);

  std::uint64_t count() const { return total_; }
  std::uint64_t min() const { return total_ ? min_ : 0; }
  std::uint64_t max() const { return total_ ? max_ : 0; }
  double mean() const;

  /// Value at quantile q in [0, 1]; e.g. quantile(0.99) is the p99.
  /// Returns the representative (midpoint) value of the bucket containing q.
  std::uint64_t quantile(double q) const;

  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p90() const { return quantile(0.90); }
  std::uint64_t p99() const { return quantile(0.99); }
  std::uint64_t p999() const { return quantile(0.999); }

  void reset();

  /// One-line summary: "n=... mean=... p50=... p99=... max=...".
  std::string summary() const;

 private:
  static std::uint32_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_low(std::uint32_t index);
  static std::uint64_t bucket_mid(std::uint32_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

/// Counts packets and bytes over the simulation run.
class RateMeter {
 public:
  void add_packet(std::uint64_t bytes) {
    ++packets_;
    bytes_ += bytes;
  }

  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace panic
