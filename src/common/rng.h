// Deterministic random number generation for workloads and service-time
// models.  A seeded xoshiro256** generator plus the distributions the
// PANIC workloads need: uniform, Bernoulli, exponential (Poisson arrivals)
// and Zipf (hot-key popularity for the KVS workload of §2.2/§3.2).
#pragma once

#include <cstdint>
#include <vector>

namespace panic {

/// The default global simulation seed (also every Rng's default seed).
inline constexpr std::uint64_t kDefaultSimSeed = 0x9E3779B97F4A7C15ull;

/// The process-wide simulation seed: kDefaultSimSeed unless
/// set_sim_seed() (a --seed flag) changed it.  A scenario's `seed` line
/// is provenance only and never sets it.
/// Every reproducible run — faulty or not — is a function of this one
/// value plus the per-stream seeds below.
std::uint64_t sim_seed();

/// Overrides the global seed (benches/examples call this from a --seed
/// argument before building the NIC).  Must be called before any
/// component derives a stream from it to affect that stream.
void set_sim_seed(std::uint64_t seed);

/// Combines the global seed with a per-stream seed (a workload source's
/// config seed, a DMA engine's jitter seed, a fault plan's seed).  When
/// the global seed is the default, this is the identity on `stream`, so
/// historic runs and golden tests are unchanged; any other global seed
/// shifts every stream deterministically.
std::uint64_t derive_seed(std::uint64_t stream);

/// xoshiro256** 1.0 — fast, high-quality, reproducible across platforms.
/// Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = kDefaultSimSeed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// True with probability p.
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (inter-arrival
  /// times of a Poisson process).
  double exponential(double mean);

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed integers over [0, n).  Uses the rejection-inversion
/// method of Hörmann & Derflinger, O(1) per sample with no O(n) tables, so
/// large keyspaces (the multi-tenant KVS workload) are cheap.
class ZipfDistribution {
 public:
  /// `n` — number of items; `s` — skew exponent (s=0 is uniform; the usual
  /// "YCSB-style" hot-key workload uses s≈0.99).
  ZipfDistribution(std::uint64_t n, double s);

  std::uint64_t operator()(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double skew() const { return s_; }

 private:
  double h(double x) const;
  double h_inv(double x) const;

  std::uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double ss_;  // 1 - s, cached
};

/// Discrete distribution over weighted alternatives (e.g., IMIX packet
/// sizes, GET/SET mixes).  O(log n) per sample via cumulative weights.
class WeightedChoice {
 public:
  explicit WeightedChoice(std::vector<double> weights);

  /// Index of the chosen alternative.
  std::size_t operator()(Rng& rng) const;

  std::size_t size() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;
};

}  // namespace panic
