// Open-loop traffic sources.  A source models the wire feeding a NIC's
// RxPort (a PANIC Ethernet port or a baseline NIC's front end): it
// generates frames on its own clock (constant-rate, Poisson, or
// bursty on/off) regardless of NIC backpressure — exactly how line-rate
// ingress behaves.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/rx_port.h"
#include "sim/component.h"

namespace panic::workload {

enum class ArrivalPattern : std::uint8_t {
  kConstantRate,  ///< fixed inter-arrival gap
  kPoisson,       ///< exponential gaps
  kOnOff,         ///< bursts at line rate, idle between bursts
};

/// The scenario `pattern=` keywords.
inline constexpr codec::Name<ArrivalPattern> kArrivalPatternNames[] = {
    {ArrivalPattern::kConstantRate, "const"},
    {ArrivalPattern::kPoisson, "poisson"},
    {ArrivalPattern::kOnOff, "onoff"},
};

struct TrafficConfig {
  ArrivalPattern pattern = ArrivalPattern::kConstantRate;
  /// Mean inter-arrival gap in cycles (rate = clock / gap).
  double mean_gap_cycles = 10.0;
  /// kOnOff: burst and idle durations in cycles.
  Cycles on_cycles = 1000;
  Cycles off_cycles = 9000;
  /// Stop after this many frames (0 = unlimited).
  std::uint64_t max_frames = 0;
  TenantId tenant;
  std::uint64_t seed = 1;
};

/// Writes the bytes of the `seq`-th frame into `out` in place.  `out` is
/// the data buffer of a recycled message, so a filler that only assigns
/// into it keeps the steady-state hot path allocation-free.
using FrameFiller =
    std::function<void(Rng&, std::uint64_t seq, std::vector<std::uint8_t>& out)>;

/// Returns the bytes of the `seq`-th frame in a fresh vector.  No source
/// takes one: the make_*_factory builders are the reference each filler's
/// frames are byte-identical to.
using FrameFactory =
    std::function<std::vector<std::uint8_t>(Rng&, std::uint64_t seq)>;

class TrafficSource : public Component {
 public:
  /// Each frame is written by `filler` into a pooled message buffer.
  TrafficSource(std::string name, RxPort* port, FrameFiller filler,
                const TrafficConfig& config);

  void tick(Cycle now) override;

  /// Quiescence: sleeps until the next emission (or on/off phase flip) and
  /// goes quiescent for good once max_frames is reached.
  Cycle next_wake(Cycle now) const override;

  std::uint64_t generated() const { return generated_; }
  bool done() const {
    return config_.max_frames != 0 && generated_ >= config_.max_frames;
  }

  /// Publishes `workload.<name>.generated`.
  void register_telemetry(telemetry::Telemetry& t) override;

 private:
  void schedule_next(Cycle now);

  RxPort* port_;
  FrameFiller filler_;
  TrafficConfig config_;
  Rng rng_;

  bool started_ = false;      // next_emit_/phase_end_ anchored at first tick
  double next_emit_ = 0.0;    // fractional cycle of the next frame
  bool in_burst_ = true;
  Cycle phase_end_ = 0;
  std::uint64_t generated_ = 0;
};

}  // namespace panic::workload
