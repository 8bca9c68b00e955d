// Per-tenant rate-limiter engine (SENIC-style — Table 1 lists SENIC as
// the canonical "Infrastructure / Inline / Network" offload: scalable NIC
// rate limiting for end hosts).
//
// Token-bucket per tenant: each tenant accrues `rate_bytes_per_cycle`
// tokens up to `burst_bytes`.  A packet that finds enough tokens passes
// immediately; otherwise it is either delayed until its tokens accrue
// (shaping) or dropped (policing).
#pragma once

#include <unordered_map>

#include "engines/engine.h"

namespace panic::engines {

enum class LimiterMode : std::uint8_t {
  kShape,   ///< hold packets until tokens accrue (adds latency)
  kPolice,  ///< drop packets that exceed the rate
};

struct RateLimiterConfig {
  LimiterMode mode = LimiterMode::kShape;
  /// Default limit applied to tenants without an explicit one.
  double default_rate_bytes_per_cycle = 25.0;  ///< 100 Gbps @ 500 MHz
  double default_burst_bytes = 16 * 1024;
};

class RateLimiterEngine : public Engine {
 public:
  RateLimiterEngine(std::string name, noc::NetworkInterface* ni,
                    const EngineConfig& config,
                    const RateLimiterConfig& limiter);

  /// Installs a per-tenant limit.
  void set_tenant_rate(TenantId tenant, double bytes_per_cycle,
                       double burst_bytes);

  std::uint64_t passed() const { return passed_; }
  std::uint64_t policed() const { return policed_; }
  /// Total shaping delay imposed, in cycles.
  std::uint64_t shaped_cycles() const { return shaped_cycles_; }

  void register_telemetry(telemetry::Telemetry& t) override;

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  struct Bucket {
    double rate = 0;
    double burst = 0;
    double tokens = 0;
    Cycle updated_at = 0;
  };

  Bucket& bucket_for(TenantId tenant);
  void refill(Bucket& bucket, Cycle now) const;

  RateLimiterConfig limiter_;
  std::unordered_map<std::uint16_t, Bucket> buckets_;

  std::uint64_t passed_ = 0;
  std::uint64_t policed_ = 0;
  std::uint64_t shaped_cycles_ = 0;

  // Shaping state for the message in service: extra wait computed when
  // service starts (service_time is const; we stash the pending delay).
  mutable Cycles pending_delay_ = 0;
};

}  // namespace panic::engines
