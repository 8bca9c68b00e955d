#include "sim/simulator.h"

#include <bit>
#include <cassert>
#include <limits>
#include <utility>

#include "net/message_pool.h"

namespace panic {

void Component::request_wake(Cycle at) {
  if (sim_ != nullptr) sim_->wake(this, at);
}

void Component::register_telemetry(telemetry::Telemetry& t) {
  telemetry_ = &t;
  tracer_ = &t.tracer();
  trace_tag_ = tracer_->intern(name_);
}

Simulator::Simulator(Frequency clock, SimMode mode)
    : clock_(clock), mode_(mode) {
  auto& m = telemetry_.metrics();
  m.expose_counter("kernel.events_executed", &events_executed_);
  m.expose_counter("kernel.component_ticks", &ctx_.ticks);
  m.expose_counter("kernel.wakeups", &ctx_.wakeups);
  m.expose_counter("kernel.fast_forwarded_cycles", &fast_forwarded_);
  m.expose_gauge("kernel.active_components",
                 [this] { return static_cast<double>(active_components()); });
  m.expose_gauge("kernel.now",
                 [this] { return static_cast<double>(now_); });
  // Message-pool pressure (process-wide; see net/message_pool.h).  Gauges,
  // not counters: the pool outlives any one simulator, so benches measure
  // deltas across a run window.
  m.expose_gauge("kernel.alloc.pool_hit", [] {
    return static_cast<double>(MessagePool::instance().stats().pool_hits);
  });
  m.expose_gauge("kernel.alloc.pool_miss", [] {
    return static_cast<double>(MessagePool::instance().stats().pool_misses);
  });
  m.expose_gauge("kernel.alloc.recycled", [] {
    return static_cast<double>(MessagePool::instance().stats().recycled);
  });
  m.expose_gauge("kernel.alloc.bytes_reused", [] {
    return static_cast<double>(MessagePool::instance().stats().bytes_reused);
  });
  m.expose_gauge("kernel.alloc.live_messages", [] {
    return static_cast<double>(MessagePool::instance().stats().live);
  });
  m.expose_gauge("kernel.alloc.live_high_watermark", [] {
    return static_cast<double>(
        MessagePool::instance().stats().live_high_watermark);
  });
  m.expose_gauge("kernel.alloc.prewarmed", [] {
    return static_cast<double>(MessagePool::instance().stats().prewarmed);
  });
}

void Simulator::add(Component* c) {
  assert(c != nullptr);
  assert((c->sim_ == nullptr || c->sim_ == this) &&
         "component registered with two simulators");
  c->sim_ = this;
  c->register_telemetry(telemetry_);
  c->slot_ = static_cast<std::uint32_t>(slots_.size());
  components_.push_back(c);
  Slot s;
  s.c = c;
  slots_.push_back(s);
  if (c->slot_ % 64 == 0) ctx_.active.push_back(0);
  if (mode_ != SimMode::kStrictTick) activate(c->slot_);
}

void Simulator::schedule_at(Cycle cycle, std::function<void()> fn) {
  if (cycle < now_) cycle = now_;  // late events fire on the next step
  events_.push(Event{cycle, next_seq_++, std::move(fn)});
}

void Simulator::wake(Component* c, Cycle at) {
  if (mode_ == SimMode::kStrictTick) return;  // everything ticks anyway
  assert(c->sim_ == this && "wake() for a component of another simulator");
  wake_slot(c->slot_, at);
}

void Simulator::wake_slot(std::uint32_t slot, Cycle at) {
  Slot& s = slots_[slot];
  Cycle eff = at < now_ ? now_ : at;
  // A component whose tick already ran this cycle (its slot is at or
  // before the one currently ticking) first observes the caller's effect
  // at the next cycle — exactly like the dense kernel, where its tick
  // preceded the caller's action within this cycle.
  if (phase_ == Phase::kTick && slot <= ctx_.current_slot && eff <= now_) {
    eff = now_ + 1;
  }
  if (eff <= now_) {
    activate(slot);
    return;
  }
  if (ctx_.is_active(slot)) {
    // Hot path: a wake for an active component (an engine waking itself
    // on every emit) coalesces into the slot instead of churning the wake
    // queue.  Folded into the post-tick sleep decision by finish_tick().
    if (eff < s.pending_request) s.pending_request = eff;
    return;
  }
  push_wake(slot, eff);
}

void Simulator::activate(std::uint32_t slot) {
  if (ctx_.is_active(slot)) return;
  ctx_.set_active(slot);
  ++ctx_.active_count;
  ++ctx_.wakeups;
}

void Simulator::push_wake(std::uint32_t slot, Cycle cycle) {
  Slot& s = slots_[slot];
  if (cycle >= s.pending_wake) return;  // an earlier wake-up already queued
  s.pending_wake = cycle;
  ctx_.wake_queue.push(Wake{cycle, slot}, now_);
}

void Simulator::drain_due_wakes() {
  ctx_.wake_queue.drain_due(now_, [&](const Wake& w) {
    Slot& s = slots_[w.slot];
    if (s.pending_wake == w.cycle) s.pending_wake = Component::kNeverWake;
    activate(w.slot);
  });
}

Cycle Simulator::next_scheduled_cycle() const {
  Cycle t = Component::kNeverWake;
  if (!events_.empty() && events_.top().cycle < t) t = events_.top().cycle;
  if (const Cycle w = ctx_.wake_queue.next_cycle(now_); w < t) t = w;
  return t;
}

void Simulator::fast_forward_to(Cycle limit) {
  Cycle target = next_scheduled_cycle();
  if (target > limit) target = limit;
  if (target > now_) {
    fast_forwarded_ += target - now_;
    now_ = target;
  }
}

void Simulator::run_events_phase() {
  phase_ = Phase::kEvents;
  while (!events_.empty() && events_.top().cycle <= now_) {
    // Copy out before pop: the callback may schedule new events.
    auto fn = events_.top().fn;
    events_.pop();
    ++events_executed_;
    fn();
  }
}

void Simulator::run_end_of_cycle() {
  phase_ = Phase::kIdle;
  for (auto& h : end_of_cycle_hooks_) h(now_);
}

void Simulator::tick_active() {
  const Cycle now = now_;
  // Walk the bitmap in slot order.  A tick may wake a later slot, which
  // sets a bit ahead of the cursor and ticks this cycle, as in dense mode;
  // it never sets one at or behind the cursor (wake_slot defers those to
  // the next cycle).  So after each tick only the current word is re-read,
  // minus the bits up to the cursor; later words are read when reached.
  for (std::size_t w = 0; w < ctx_.active.size(); ++w) {
    std::uint64_t bits = ctx_.active[w];
    while (bits != 0) {
      const auto b = static_cast<unsigned>(std::countr_zero(bits));
      const auto slot = static_cast<std::uint32_t>(w * 64 + b);
      ctx_.current_slot = slot;
      slots_[slot].c->tick(now);
      ++ctx_.ticks;
      finish_tick(slot, now);
      bits = ctx_.active[w] & ~((std::uint64_t{2} << b) - 1);
    }
  }
}

void Simulator::finish_tick(std::uint32_t slot, Cycle now) {
  Slot& s = slots_[slot];
  Cycle nw = s.c->next_wake(now);
  if (s.pending_request < nw) nw = s.pending_request;
  s.pending_request = Component::kNeverWake;
  // Linger window: a component due again within a few cycles stays active
  // and spends those cycles as no-op ticks instead of paying a wake-heap
  // push + pop + re-activation.  Under saturation components typically
  // re-arm 2–15 cycles out; idle-gap sleeps are far longer than the
  // window and still park (so fast-forward is only delayed, never lost).
  if (nw > now + kLingerWindow) {
    ctx_.set_idle(slot);
    --ctx_.active_count;
    if (nw != Component::kNeverWake) push_wake(slot, nw);
  }
}

void Simulator::step() {
  if (mode_ == SimMode::kEventDriven) drain_due_wakes();

  run_events_phase();

  phase_ = Phase::kTick;
  if (mode_ == SimMode::kStrictTick) {
    for (Component* c : components_) {
      c->tick(now_);
      ++ctx_.ticks;
    }
  } else {
    tick_active();
  }

  run_end_of_cycle();
  ++now_;
}

void Simulator::run(Cycles cycles) {
  assert(cycles <= std::numeric_limits<Cycle>::max() - now_ &&
         "now + cycles wraps Cycle");
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    step();
    if (can_fast_forward() && now_ < end) fast_forward_to(end);
  }
}

bool Simulator::run_until(const std::function<bool()>& done,
                          Cycles max_cycles) {
  const Cycle end = now_ + max_cycles;
  while (now_ < end) {
    if (done()) return true;
    step();
    if (can_fast_forward() && now_ < end) {
      // The predicate is polled before jumping so the reported `now()` on
      // success matches strict mode (the cycle after the one that made it
      // true), and nothing can change it inside the gap.
      if (done()) return true;
      fast_forward_to(end);
    }
  }
  return done();
}

}  // namespace panic
