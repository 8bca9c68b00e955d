#include "engines/tile_egress.h"

namespace panic::engines {

bool TileEgress::steer_around_dead(MessagePtr& msg, EngineId& next,
                                   Cycle now) {
  if (const auto fallback = steering_->resolve(next); fallback.has_value()) {
    // Rewrite the chain hop naming the dead engine (when the route came
    // from the chain) so the fallback consumes it, keeping the slack, and
    // the tail of the chain stays reachable.
    if (const auto hop = msg->chain.current();
        hop.has_value() && hop->engine == next) {
      msg->chain.reroute_current(*fallback);
    }
    trace_fault(now, *msg, fallback->value);
    ++counters_.resteered;
    next = *fallback;
    return true;
  }
  if (no_route_.policy == fault::NoRoutePolicy::kBackpressure) {
    // Degraded-mode admission: hold the message (bounded) until a
    // revive/spare re-opens a route; shed when the buffer is full.
    if (parked_.size() < no_route_.depth) {
      parked_gen_ = steering_->generation();
      parked_.push_back(std::move(msg));
      ++counters_.parked;
      if (parked_.size() > parked_watermark_) {
        parked_watermark_ = parked_.size();
      }
      return false;
    }
    msg->set_fate(MessageFate::kShed);
    trace_fault(now, *msg, next.value);
    ++counters_.shed;
    return false;
  }
  // No live equivalent exists: the message dies here, attributed to the
  // injected fault (not lost).
  fault_drop(std::move(msg), now, next.value);
  return false;
}

void TileEgress::fault_drop(MessagePtr msg, Cycle now, std::uint32_t arg) {
  msg->set_fate(MessageFate::kFaulted);
  trace_fault(now, *msg, arg);
  ++counters_.faulted;
}

void TileEgress::discard_all(Cycle now) {
  while (!parked_.empty()) {
    fault_drop(std::move(parked_.front()), now, 0);
    parked_.pop_front();
  }
  // Staged outbounds were pushed with ready cycles <= now, so this drains
  // the staging buffer completely.
  while (auto ob = out_.try_pop(now)) fault_drop(std::move(ob->msg), now, 0);
}

}  // namespace panic::engines
