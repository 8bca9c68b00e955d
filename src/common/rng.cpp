#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace panic {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64, used to expand the seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t& sim_seed_storage() {
  static std::uint64_t seed = [] {
    if (const char* env = std::getenv("PANIC_SEED")) {
      char* end = nullptr;
      const std::uint64_t v = std::strtoull(env, &end, 0);
      if (end != env) return v;
    }
    return kDefaultSimSeed;
  }();
  return seed;
}

}  // namespace

std::uint64_t sim_seed() { return sim_seed_storage(); }

void set_sim_seed(std::uint64_t seed) { sim_seed_storage() = seed; }

std::uint64_t derive_seed(std::uint64_t stream) {
  const std::uint64_t global = sim_seed();
  if (global == kDefaultSimSeed) return stream;  // historic streams intact
  std::uint64_t x = global;
  return stream ^ splitmix64(x);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = hi - lo + 1;
  if (range == 0) return next();  // full 64-bit range
  // Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t t = (-range) % range;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

double Rng::exponential(double mean) {
  // Inversion; guard against log(0).
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

ZipfDistribution::ZipfDistribution(std::uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  ss_ = 1.0 - s_;
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n_) + 0.5);
}

double ZipfDistribution::h(double x) const {
  // Integral of x^-s: H(x) = x^(1-s) / (1-s), with the s == 1 limit log(x).
  if (std::abs(ss_) < 1e-12) return std::log(x);
  return std::pow(x, ss_) / ss_;
}

double ZipfDistribution::h_inv(double x) const {
  if (std::abs(ss_) < 1e-12) return std::exp(x);
  return std::pow(x * ss_, 1.0 / ss_);
}

std::uint64_t ZipfDistribution::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  // Rejection-inversion sampling (Hörmann & Derflinger 1996).
  while (true) {
    const double u = h_n_ + rng.uniform01() * (h_x1_ - h_n_);
    const double x = h_inv(u);
    auto k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    if (static_cast<double>(k) - x <= ss_ ||
        u >= h(static_cast<double>(k) + 0.5) - std::pow(k, -s_)) {
      return k - 1;  // 0-based rank: 0 is the hottest key
    }
  }
}

WeightedChoice::WeightedChoice(std::vector<double> weights) {
  assert(!weights.empty());
  cumulative_.reserve(weights.size());
  double sum = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    sum += w;
    cumulative_.push_back(sum);
  }
  assert(sum > 0.0);
  for (double& c : cumulative_) c /= sum;
  cumulative_.back() = 1.0;  // guard against FP drift
}

std::size_t WeightedChoice::operator()(Rng& rng) const {
  const double u = rng.uniform01();
  std::size_t lo = 0, hi = cumulative_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cumulative_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace panic
