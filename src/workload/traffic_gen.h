// Open-loop traffic sources.  A source models the wire feeding an Ethernet
// port: it generates frames on its own clock (constant-rate, Poisson, or
// bursty on/off) regardless of NIC backpressure — exactly how line-rate
// ingress behaves.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "common/units.h"
#include "engines/ethernet_port.h"
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

/// Produces the bytes of the `seq`-th frame.
using FrameFactory =
    std::function<std::vector<std::uint8_t>(Rng&, std::uint64_t seq)>;

/// Writes the bytes of the `seq`-th frame into `out` in place.  The
/// zero-allocation counterpart of FrameFactory: `out` is the data buffer
/// of a recycled message, so a filler that only assigns into it keeps the
/// steady-state hot path allocation-free.
using FrameFiller =
    std::function<void(Rng&, std::uint64_t seq, std::vector<std::uint8_t>& out)>;

class TrafficSource : public Component {
 public:
  TrafficSource(std::string name, engines::EthernetPortEngine* port,
                FrameFactory factory, const TrafficConfig& config);

  /// Zero-allocation source: frames are written into pooled message
  /// buffers instead of freshly allocated vectors.
  TrafficSource(std::string name, engines::EthernetPortEngine* port,
                FrameFiller filler, const TrafficConfig& config);

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

  /// Helper: gap cycles for a target packet rate at a clock frequency.
  static double gap_for_pps(double pps, Frequency clock) {
    return clock.hz() / pps;
  }
  /// Helper: gap cycles to offer `rate` of `frame_bytes` frames
  /// (wire size = frame + preamble/IFG).
  static double gap_for_rate(DataRate rate, std::size_t frame_bytes,
                             Frequency clock) {
    const double pps = rate.packets_per_second(
        static_cast<double>(frame_bytes + kMinWireSizeBytes - kMinFrameBytes));
    return gap_for_pps(pps, clock);
  }

 private:
  void schedule_next(Cycle now);

  engines::EthernetPortEngine* port_;
  FrameFactory factory_;
  FrameFiller filler_;  ///< used instead of factory_ when set
  TrafficConfig config_;
  Rng rng_;

  bool started_ = false;      // next_emit_/phase_end_ anchored at first tick
  double next_emit_ = 0.0;    // fractional cycle of the next frame
  bool in_burst_ = true;
  Cycle phase_end_ = 0;
  std::uint64_t generated_ = 0;
};

}  // namespace panic::workload
