#include "workload/traffic_gen.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "telemetry/telemetry.h"

namespace panic::workload {

TrafficSource::TrafficSource(std::string name, RxPort* port,
                             FrameFiller filler, const TrafficConfig& config)
    : Component(std::move(name)),
      port_(port),
      filler_(std::move(filler)),
      config_(config),
      rng_(derive_seed(config.seed)) {
  assert(port_ != nullptr);
  assert(filler_);
  assert(config_.mean_gap_cycles > 0.0);
  phase_end_ = config_.on_cycles;
}

void TrafficSource::schedule_next(Cycle now) {
  (void)now;
  switch (config_.pattern) {
    case ArrivalPattern::kConstantRate:
    case ArrivalPattern::kOnOff:
      next_emit_ += config_.mean_gap_cycles;
      break;
    case ArrivalPattern::kPoisson:
      next_emit_ += rng_.exponential(config_.mean_gap_cycles);
      break;
  }
}

void TrafficSource::tick(Cycle now) {
  if (done()) return;

  if (!started_) {
    // Anchor the schedule at the first tick so a source created (or
    // registered) mid-simulation doesn't "catch up" with a burst.
    started_ = true;
    next_emit_ = static_cast<double>(now);
    phase_end_ = now + config_.on_cycles;
  }

  if (config_.pattern == ArrivalPattern::kOnOff) {
    if (now >= phase_end_) {
      in_burst_ = !in_burst_;
      phase_end_ =
          now + (in_burst_ ? config_.on_cycles : config_.off_cycles);
      if (in_burst_) next_emit_ = static_cast<double>(now);
    }
    if (!in_burst_) return;
  }

  // Emit every frame whose (fractional) time has come; multiple frames per
  // cycle are possible when the gap is < 1 cycle (rates above the clock).
  while (!done() && next_emit_ <= static_cast<double>(now)) {
    auto msg = make_message(MessageKind::kPacket);
    filler_(rng_, generated_, msg->data);
    port_->deliver_rx(std::move(msg), now, config_.tenant);
    ++generated_;
    schedule_next(now);
  }
}

Cycle TrafficSource::next_wake(Cycle now) const {
  if (done()) return kNeverWake;
  if (!started_) return now + 1;  // anchor at the next executed cycle

  // A frame at fractional time t is emitted on the first cycle >= t.
  const auto emit_cycle = static_cast<Cycle>(std::ceil(next_emit_));
  const Cycle emit = std::max(emit_cycle, now + 1);
  if (config_.pattern != ArrivalPattern::kOnOff) return emit;

  // On/off also needs to observe the phase boundary: to resume emitting
  // when an off phase ends, and to re-anchor next_emit_ when a new burst
  // starts.
  const Cycle flip = std::max(phase_end_, now + 1);
  return in_burst_ ? std::min(emit, flip) : flip;
}

void TrafficSource::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  t.metrics().expose_counter("workload." + name() + ".generated",
                             &generated_);
}

}  // namespace panic::workload
