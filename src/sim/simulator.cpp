#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "net/message_pool.h"

namespace panic {

thread_local Simulator::ShardState* Simulator::tls_shard_ = nullptr;

void Component::request_wake(Cycle at) {
  if (sim_ != nullptr) sim_->wake(this, at);
}

void Component::register_telemetry(telemetry::Telemetry& t) {
  telemetry_ = &t;
  tracer_ = &t.tracer();
  trace_tag_ = tracer_->intern(name_);
}

namespace {

int resolve_shard_count(int threads) {
  if (threads <= 0) threads = sim_threads();
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
    if (threads > 8) threads = 8;
  }
  if (threads > 256) threads = 256;
  return threads;
}

}  // namespace

Simulator::Simulator(Frequency clock, SimMode mode, int threads)
    : clock_(clock), mode_(mode) {
  if (mode_ == SimMode::kParallelShards) {
    num_shards_ = resolve_shard_count(threads);
    shards_.reserve(static_cast<std::size_t>(num_shards_));
    for (int i = 0; i < num_shards_; ++i) {
      shards_.push_back(std::make_unique<ShardState>());
      shards_.back()->index = i;
    }
  }

  auto& m = telemetry_.metrics();
  m.expose_counter("kernel.events_executed", &events_executed_);
  // Tick/wake-up totals: the coordinator's cell plus one cell per shard,
  // summed at snapshot time.  Each cell has exactly one writer (the owning
  // shard's thread, or the coordinator for serial components) so the hot
  // path stays a plain increment — see telemetry/metrics.h.
  {
    std::vector<std::uint64_t*> ticks{&serial_.ticks};
    std::vector<std::uint64_t*> wakes{&serial_.wakeups};
    for (auto& ss : shards_) {
      ticks.push_back(&ss->ticks);
      wakes.push_back(&ss->wakeups);
    }
    m.expose_counter_sum("kernel.component_ticks", std::move(ticks));
    m.expose_counter_sum("kernel.wakeups", std::move(wakes));
  }
  m.expose_counter("kernel.fast_forwarded_cycles", &fast_forwarded_);
  m.expose_gauge("kernel.active_components",
                 [this] { return static_cast<double>(active_components()); });
  m.expose_gauge("kernel.now",
                 [this] { return static_cast<double>(now_); });
  m.expose_gauge("kernel.shards",
                 [this] { return static_cast<double>(num_shards_); });
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

Simulator::~Simulator() { stop_workers(); }

void Simulator::add(Component* c) {
  assert(c != nullptr);
  assert((c->sim_ == nullptr || c->sim_ == this) &&
         "component registered with two simulators");
  // Components registered after the shard map seals (e.g. workload
  // sources added once a warmup run finished) keep the default shard of
  // -1, so they land in the serial suffix the coordinator ticks — the
  // slot order still matches the sequential kernels.  Only registration
  // from inside a shard phase is fatal: workers iterate slots_ then.
  if (mode_ == SimMode::kParallelShards && tls_shard_ != nullptr) {
    std::fprintf(stderr,
                 "panic: Simulator::add('%s') from inside a shard tick "
                 "phase (slots_ is being iterated concurrently)\n",
                 c->name().c_str());
    std::abort();
  }
  c->sim_ = this;
  c->register_telemetry(telemetry_);
  c->slot_ = static_cast<std::uint32_t>(slots_.size());
  components_.push_back(c);
  Slot s;
  s.c = c;
  s.local = c->slot_;
  slots_.push_back(s);
  serial_.append(c->slot_);
  if (mode_ != SimMode::kStrictTick) activate(serial_, c->slot_);
}

void Simulator::set_shard(Component* c, int shard) {
  assert(c != nullptr && c->sim_ == this &&
         "set_shard() for a component not registered here");
  if (mode_ != SimMode::kParallelShards) return;
  if (sealed_) {
    std::fprintf(stderr, "panic: set_shard('%s') after seal\n",
                 c->name().c_str());
    std::abort();
  }
  if (shard >= num_shards_) shard = num_shards_ - 1;
  slots_[c->slot_].shard = static_cast<std::int16_t>(shard < 0 ? -1 : shard);
}

void Simulator::schedule_at(Cycle cycle, std::function<void()> fn) {
  if (cycle < now_) cycle = now_;  // late events fire on the next step
  if (ShardState* ts = tls_shard_) {
    // Scheduled from inside a shard worker's tick: stage it, keyed by the
    // scheduling slot so the post-barrier merge reproduces the global
    // sequence order the sequential tick loop would have produced.
    ts->staged_events.push_back(
        StagedEvent{ts->current_slot, ts->staged_seq++, cycle, std::move(fn)});
    return;
  }
  events_.push(Event{cycle, next_seq_++, std::move(fn)});
}

void Simulator::wake(Component* c, Cycle at) {
  if (mode_ == SimMode::kStrictTick) return;  // everything ticks anyway
  assert(c->sim_ == this && "wake() for a component of another simulator");
  wake_slot(c->slot_, at);
}

void Simulator::wake_slot(std::uint32_t slot, Cycle at) {
  Slot& s = slots_[slot];
  ShardState* ts = tls_shard_;
  if (ts != nullptr && s.shard != ts->index) {
    // Conservative synchronization: during the parallel phase a shard may
    // only touch its own components.  Cross-shard hand-offs must go
    // through the staged boundary exchange (see noc/mesh.h).
    std::fprintf(stderr,
                 "panic: cross-shard wake of '%s' (shard %d) from shard %d "
                 "at cycle %llu\n",
                 s.c->name().c_str(), static_cast<int>(s.shard), ts->index,
                 static_cast<unsigned long long>(now_));
    std::abort();
  }
  Cycle eff = at < now_ ? now_ : at;
  // A component whose tick already ran this cycle (its slot is at or
  // before the one currently ticking) first observes the caller's effect
  // at the next cycle — exactly like the dense kernel, where its tick
  // preceded the caller's action within this cycle.  In the parallel phase
  // the comparison is against the shard's own cursor; slots are only woken
  // by their own shard, so the global slot index ordering still applies.
  const std::uint32_t cur =
      ts != nullptr ? ts->current_slot : serial_.current_slot;
  if (phase_ == Phase::kTick && slot <= cur && eff <= now_) {
    eff = now_ + 1;
  }
  // A shard worker only reaches here for its own slots, so this is *ts.
  TickContext& ctx = owner(s);
  if (eff <= now_) {
    activate(ctx, slot);
    return;
  }
  if (ctx.is_active(s.local)) {
    // Hot path: an active component re-arming itself (a router on every
    // accepted flit) coalesces into the slot instead of churning the wake
    // heap.  Folded into the post-tick sleep decision by finish_tick().
    if (eff < s.pending_request) s.pending_request = eff;
    return;
  }
  push_wake(ctx.wake_queue, slot, eff);
}

void Simulator::activate(TickContext& ctx, std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (ctx.is_active(s.local)) return;
  ctx.set_active(s.local);
  s.c->awake_ = true;
  ++ctx.active_count;
  ++ctx.wakeups;
}

void Simulator::push_wake(WakeQueue& q, std::uint32_t slot, Cycle cycle) {
  Slot& s = slots_[slot];
  if (cycle >= s.pending_wake) return;  // an earlier wake-up already queued
  s.pending_wake = cycle;
  q.push(Wake{cycle, slot}, now_);
}

void Simulator::drain_due_wakes(TickContext& ctx) {
  ctx.wake_queue.drain_due(now_, [&](const Wake& w) {
    Slot& s = slots_[w.slot];
    if (s.pending_wake == w.cycle) s.pending_wake = Component::kNeverWake;
    activate(ctx, w.slot);
  });
}

Cycle Simulator::next_scheduled_cycle() const {
  Cycle t = Component::kNeverWake;
  if (!events_.empty() && events_.top().cycle < t) t = events_.top().cycle;
  if (const Cycle w = serial_.wake_queue.next_cycle(); w < t) t = w;
  for (const auto& ss : shards_) {
    if (const Cycle w = ss->wake_queue.next_cycle(); w < t) t = w;
  }
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

std::uint64_t Simulator::component_ticks() const {
  std::uint64_t total = serial_.ticks;
  for (const auto& ss : shards_) total += ss->ticks;
  return total;
}

std::uint64_t Simulator::wakeups() const {
  std::uint64_t total = serial_.wakeups;
  for (const auto& ss : shards_) total += ss->wakeups;
  return total;
}

std::size_t Simulator::active_components() const {
  std::size_t total = serial_.active_count;
  for (const auto& ss : shards_) total += ss->active_count;
  return total;
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

void Simulator::tick_active(TickContext& ctx) {
  const Cycle now = now_;
  // Walk the bitmap in slot order.  A tick may wake a later slot, which
  // sets a bit ahead of the cursor and ticks this cycle, as in dense mode;
  // it never sets one at or behind the cursor (wake_slot defers those to
  // the next cycle).  So after each tick only the current word is re-read,
  // minus the bits up to the cursor; later words are read when reached.
  for (std::size_t w = 0; w < ctx.active.size(); ++w) {
    std::uint64_t bits = ctx.active[w];
    while (bits != 0) {
      const auto b = static_cast<unsigned>(std::countr_zero(bits));
      const std::uint32_t slot = ctx.slots[w * 64 + b];
      ctx.current_slot = slot;
      slots_[slot].c->tick(now);
      ++ctx.ticks;
      finish_tick(slot, now, ctx);
      bits = ctx.active[w] & ~((std::uint64_t{2} << b) - 1);
    }
  }
}

void Simulator::finish_tick(std::uint32_t slot, Cycle now, TickContext& ctx) {
  Slot& s = slots_[slot];
  // Hot-slot poll skip: a component that has ticked kHotStreak+ cycles in
  // a row (a saturated router or engine) is polled for sleep only every
  // kHotStreak-th tick; in between it just stays active.  The virtual
  // next_wake call — which for a router scans every input FIFO — is the
  // dominant event-kernel overhead the dense kernel never pays, and under
  // saturation the answer is almost always "stay awake" anyway.  Any
  // cycles kept awake in error are no-op ticks by the dense-mode
  // contract, so statistics cannot move; a deferred pending_request is
  // folded in at the next poll, which can only keep the slot awake
  // longer, never make it miss work.
  if (++s.streak >= kHotStreak && (s.streak & (kHotStreak - 1)) != 0) {
    return;
  }
  Cycle nw = s.c->next_wake(now);
  if (s.pending_request < nw) nw = s.pending_request;
  s.pending_request = Component::kNeverWake;
  // Linger window: a component due again within a few cycles stays active
  // and spends those cycles as no-op ticks instead of paying a wake-heap
  // push + pop + re-activation.  Under saturation components typically
  // re-arm 2–15 cycles out; idle-gap sleeps are far longer than the
  // window and still park (so fast-forward is only delayed, never lost).
  if (nw > now + kLingerWindow) {
    ctx.set_idle(s.local);
    s.c->awake_ = false;
    s.streak = 0;
    --ctx.active_count;
    if (nw != Component::kNeverWake) push_wake(ctx.wake_queue, slot, nw);
  }
}

void Simulator::step() {
  if (mode_ == SimMode::kParallelShards) {
    step_parallel();
    return;
  }

  if (mode_ == SimMode::kEventDriven) drain_due_wakes(serial_);

  run_events_phase();

  phase_ = Phase::kTick;
  if (mode_ == SimMode::kStrictTick) {
    for (Component* c : components_) {
      c->tick(now_);
      ++serial_.ticks;
    }
  } else {
    tick_active(serial_);
  }

  run_end_of_cycle();
  ++now_;
}

// --- Parallel-shards mode. ---

void Simulator::seal_shards() {
  sealed_ = true;
  first_serial_slot_ = static_cast<std::uint32_t>(slots_.size());
  bool seen_serial = false;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.shard >= 0) {
      if (seen_serial) {
        // The coordinator replays serial components *after* the parallel
        // phase; for that to equal the sequential slot order, serial slots
        // must form a registration-order suffix.
        std::fprintf(stderr,
                     "panic: sharded component '%s' (slot %u) registered "
                     "after serial component '%s' — serial components must "
                     "form a registration-order suffix\n",
                     s.c->name().c_str(), i,
                     slots_[first_serial_slot_].c->name().c_str());
        std::abort();
      }
      ShardState& ss = *shards_[s.shard];
      const auto local = static_cast<std::uint32_t>(ss.slots.size());
      ss.append(i);
      any_sharded_ = true;
      if (serial_.is_active(s.local)) {
        // Re-home the activation done before the seal (its wake-up stays
        // counted in the coordinator's cell).
        serial_.set_idle(s.local);
        --serial_.active_count;
        ss.set_active(local);
        ++ss.active_count;
      }
      s.local = local;
    } else if (!seen_serial) {
      seen_serial = true;
      first_serial_slot_ = i;
    }
  }

  // Wake-ups queued during construction/wiring all landed in the
  // coordinator's queue; re-home them to their owners' queues (entries
  // move verbatim — pending_wake dedup state is per-slot and unaffected).
  if (any_sharded_ && !serial_.wake_queue.empty()) {
    for (const Wake& w : serial_.wake_queue.drain_all()) {
      owner(slots_[w.slot]).wake_queue.push(w, now_);
    }
  }

  if (any_sharded_ && num_shards_ > 1) {
    workers_.reserve(static_cast<std::size_t>(num_shards_ - 1));
    for (int i = 1; i < num_shards_; ++i) {
      workers_.emplace_back([this, i] { worker_main(i); });
    }
  }
}

void Simulator::worker_main(int shard_index) {
  ShardState& ss = *shards_[shard_index];
  std::uint64_t seen = 0;
  while (true) {
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    // Spin briefly (the common case on a multi-core host), then block on
    // the futex so oversubscribed hosts — including nproc==1 CI runners —
    // never starve the coordinator.
    for (int spin = 0; e == seen && spin < 256; ++spin) {
      e = epoch_.load(std::memory_order_acquire);
    }
    while (e == seen) {
      epoch_.wait(seen, std::memory_order_acquire);
      e = epoch_.load(std::memory_order_acquire);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    seen = e;
    tls_shard_ = &ss;
    tick_active(ss);
    tls_shard_ = nullptr;
    workers_done_.fetch_add(1, std::memory_order_release);
    workers_done_.notify_one();
  }
}

void Simulator::stop_workers() {
  if (workers_.empty()) return;
  stopping_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void Simulator::merge_staged_events() {
  // Deterministic merge: order staged events by (scheduling slot, per-slot
  // sequence) — exactly the order the sequential tick loop, which visits
  // slots ascending, would have pushed them in — then assign global
  // sequence numbers.
  std::vector<StagedEvent> merged;
  for (auto& ss : shards_) {
    for (auto& ev : ss->staged_events) merged.push_back(std::move(ev));
    ss->staged_events.clear();
    ss->staged_seq = 0;
  }
  if (merged.empty()) return;
  std::sort(merged.begin(), merged.end(),
            [](const StagedEvent& a, const StagedEvent& b) {
              if (a.slot != b.slot) return a.slot < b.slot;
              return a.seq < b.seq;
            });
  for (auto& ev : merged) {
    events_.push(Event{ev.cycle, next_seq_++, std::move(ev.fn)});
  }
}

void Simulator::step_parallel() {
  if (!sealed_) seal_shards();

  drain_due_wakes(serial_);
  for (auto& ss : shards_) drain_due_wakes(*ss);

  run_events_phase();

  phase_ = Phase::kTick;
  if (any_sharded_) {
    const int n_workers = static_cast<int>(workers_.size());
    if (n_workers > 0) {
      workers_done_.store(0, std::memory_order_relaxed);
      epoch_.fetch_add(1, std::memory_order_release);
      epoch_.notify_all();
    }
    // The coordinator doubles as shard 0's worker.
    tls_shard_ = shards_[0].get();
    tick_active(*shards_[0]);
    tls_shard_ = nullptr;
    if (n_workers > 0) {
      int done = workers_done_.load(std::memory_order_acquire);
      for (int spin = 0; done != n_workers && spin < 256; ++spin) {
        done = workers_done_.load(std::memory_order_acquire);
      }
      while (done != n_workers) {
        workers_done_.wait(done, std::memory_order_acquire);
        done = workers_done_.load(std::memory_order_acquire);
      }
    }

    merge_staged_events();

    // Boundary exchange: deliver flits staged at shard cuts before any
    // serial component ticks, so queue probes (the watchdog's
    // has_pending_flits) and wake-ups observe exactly the sequential
    // kernels' state.  The cursor makes wake-backs targeting already-
    // ticked (sharded) slots defer to the next cycle, like mid-scan wakes
    // in the sequential loop.
    serial_.current_slot =
        first_serial_slot_ == 0 ? 0 : first_serial_slot_ - 1;
    for (auto& h : post_parallel_hooks_) h(now_);
  }

  // Serial suffix (watchdogs, workload sources) in registration order:
  // once sealed, the coordinator's bitmap holds no sharded slot's bit.
  tick_active(serial_);

  run_end_of_cycle();
  ++now_;
}

void Simulator::run(Cycles cycles) {
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
