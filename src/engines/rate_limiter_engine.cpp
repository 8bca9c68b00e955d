#include "engines/rate_limiter_engine.h"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.h"

namespace panic::engines {

constexpr Cycles kLookupCycles = 2;  ///< one token-bucket lookup

RateLimiterEngine::RateLimiterEngine(std::string name,
                                     noc::NetworkInterface* ni,
                                     const EngineConfig& config,
                                     const RateLimiterConfig& limiter)
    : Engine(std::move(name), ni, config), limiter_(limiter) {}

void RateLimiterEngine::set_tenant_rate(TenantId tenant,
                                        double bytes_per_cycle,
                                        double burst_bytes) {
  Bucket bucket;
  bucket.rate = bytes_per_cycle;
  bucket.burst = burst_bytes;
  bucket.tokens = burst_bytes;  // start full
  buckets_[tenant.value] = bucket;
}

RateLimiterEngine::Bucket& RateLimiterEngine::bucket_for(TenantId tenant) {
  const auto it = buckets_.find(tenant.value);
  if (it != buckets_.end()) return it->second;
  Bucket bucket;
  bucket.rate = limiter_.default_rate_bytes_per_cycle;
  bucket.burst = limiter_.default_burst_bytes;
  bucket.tokens = bucket.burst;
  return buckets_.emplace(tenant.value, bucket).first->second;
}

void RateLimiterEngine::refill(Bucket& bucket, Cycle now) const {
  if (now > bucket.updated_at) {
    bucket.tokens = std::min(
        bucket.burst, bucket.tokens + bucket.rate *
                                          static_cast<double>(
                                              now - bucket.updated_at));
    bucket.updated_at = now;
  }
}

Cycles RateLimiterEngine::service_time(const Message& msg) const {
  // Shaping delay is computed in process(); the base service models the
  // bucket lookup.  pending_delay_ carries the shaping wait computed for
  // the *previous* start, consumed here.
  (void)msg;
  const Cycles delay = pending_delay_;
  pending_delay_ = 0;
  return kLookupCycles + delay;
}

bool RateLimiterEngine::process(Message& msg, Cycle now) {
  if (msg.kind != MessageKind::kPacket) return true;
  Bucket& bucket = bucket_for(msg.tenant);
  refill(bucket, now);

  const auto cost = static_cast<double>(msg.data.size());
  if (bucket.tokens >= cost) {
    bucket.tokens -= cost;
    ++passed_;
    return true;
  }

  if (limiter_.mode == LimiterMode::kPolice) {
    ++policed_;
    return false;  // dropped
  }

  // Shape: charge the bucket (going negative) and delay the NEXT message
  // start by the time those tokens take to accrue.  Single-server engines
  // serialize per-tenant traffic through this wait, enforcing the rate.
  const double deficit = cost - bucket.tokens;
  bucket.tokens = 0;
  const auto wait =
      static_cast<Cycles>(std::ceil(deficit / std::max(bucket.rate, 1e-9)));
  bucket.updated_at = now + wait;  // tokens at 'now + wait' are spent
  pending_delay_ = wait;
  shaped_cycles_ += wait;
  ++passed_;
  return true;
}

void RateLimiterEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "passed", &passed_);
  m.expose_counter(metric_prefix() + "policed", &policed_);
  m.expose_counter(metric_prefix() + "shaped_cycles", &shaped_cycles_);
}

}  // namespace panic::engines
