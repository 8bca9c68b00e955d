// Event-driven simulation kernel with a dense-tick reference mode.
//
// The kernel advances a single global clock (the paper analyses the NIC at
// one core frequency, e.g. 500 MHz, §4.2).  Per executed cycle it first
// activates components whose wake-up is due, then fires any events
// scheduled for that cycle (DMA completions, timer expirations,
// packet-injection times), then ticks components once.
//
// Two modes:
//
//   * kEventDriven (default) — only *active* components tick.  After each
//     tick a component reports its next required cycle via
//     `Component::next_wake`; sleepers are parked in a wake queue and
//     anything handing work to a quiescent component wakes it through
//     `Component::request_wake`.  When the active set is empty the clock
//     fast-forwards to the next pending event or wake-up, so idle gaps in
//     bursty workloads cost no wall-clock time.
//   * kStrictTick — every registered component ticks every cycle (the
//     original dense kernel).  Wake bookkeeping is bypassed entirely.
//
// Both modes are cycle-identical: they agree on all simulation state at
// every cycle boundary — the same events fire in the same cycles, and
// statistics, queues and final cycle counts match exactly — though not on
// which ticks ran.  The event kernel skips quiescent components' ticks
// (observable no-ops by contract), and its NoC carries streaming wormhole
// bodies as trains instead of ticking each router per flit, settling them
// on every read (noc/mesh.h).  The equivalence is pinned by
// tests/sim/kernel_equivalence_test.cpp, tests/noc/train_test.cpp and the
// panic_fuzz differential oracle.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/sim_mode.h"
#include "common/units.h"
#include "sim/component.h"
#include "telemetry/telemetry.h"

namespace panic {

class Simulator {
 public:
  explicit Simulator(Frequency clock = Frequency::megahertz(500),
                     SimMode mode = SimMode::kEventDriven);
  // Components and the kernel's own telemetry callbacks hold its address.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimMode mode() const { return mode_; }

  /// The unified observability surface: every registered component's
  /// metrics plus the per-message tracer.  The kernel's own counters are
  /// published under "kernel.*".
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Point-in-time copy of every metric — what benches and examples read
  /// instead of per-component getters.
  telemetry::MetricsSnapshot snapshot() const {
    return telemetry_.snapshot();
  }

  /// Registers a component.  The simulator does not own components; the
  /// NIC composition that creates them must outlive the simulator run.
  /// Newly added components start active (their first tick decides whether
  /// they sleep).
  void add(Component* c);

  /// Schedules `fn` to run at the start of `cycle`.  Events at the same
  /// cycle run in scheduling order.  A `cycle` in the past (or equal to
  /// the current cycle once the event phase has passed) is deterministic
  /// in both modes: the event fires at the start of the next executed
  /// cycle, and fast-forward never skips it — see
  /// tests/sim/simulator_test.cpp (LateEvent*).
  void schedule_at(Cycle cycle, std::function<void()> fn);

  /// Schedules `fn` to run `delay` cycles from now.
  void schedule_in(Cycles delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Activates `c` so it ticks at cycle `at` (clamped to the present; a
  /// component that already ticked this cycle is deferred to the next one,
  /// exactly when a dense tick would first observe the caller's effect).
  /// No-op in strict-tick mode.
  void wake(Component* c, Cycle at);

  /// Registers a hook that runs at the very end of every executed cycle,
  /// after all ticks, in both modes — where the NoC applies staged credit
  /// returns (credits freed by a pop become visible the next cycle, making
  /// intra-cycle component order immaterial).
  void add_end_of_cycle_hook(std::function<void(Cycle)> fn) {
    end_of_cycle_hooks_.push_back(std::move(fn));
  }

  Cycle now() const { return now_; }
  Frequency clock() const { return clock_; }
  double now_ns() const { return clock_.cycles_to_ns(now_); }

  /// Runs exactly `cycles` cycles.
  void run(Cycles cycles);

  /// Runs until `done()` returns true or `max_cycles` elapse.  Returns
  /// true if the predicate fired.  The predicate is polled once per
  /// *executed* cycle; cycles skipped by fast-forward cannot change its
  /// value because no component runs in them.
  bool run_until(const std::function<bool()>& done, Cycles max_cycles);

  /// Executes one cycle: due wake-ups, pending events for `now`, then
  /// component ticks.  Never fast-forwards (single-stepping tests rely on
  /// one call == one cycle).
  void step();

  // --- Kernel counters (work accounting for benches and tests). ---
  std::uint64_t events_executed() const { return events_executed_; }
  /// Total Component::tick invocations across the run.
  std::uint64_t component_ticks() const { return ctx_.ticks; }
  /// Transitions of a component from quiescent to active.
  std::uint64_t wakeups() const { return ctx_.wakeups; }
  /// Cycles skipped without executing (empty active set, no due work).
  std::uint64_t fast_forwarded_cycles() const { return fast_forwarded_; }
  /// Number of currently active components.
  std::size_t active_components() const { return ctx_.active_count; }

 private:
  struct Event {
    Cycle cycle;
    std::uint64_t seq;  // FIFO order within a cycle
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.cycle != b.cycle) return a.cycle > b.cycle;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    Component* c = nullptr;
    /// Earliest future wake-up already queued for this slot (dedups heap
    /// pushes; stale heap entries are ignored on pop).
    Cycle pending_wake = Component::kNeverWake;
    /// Earliest wake requested while the slot was ACTIVE.  Hot components
    /// re-arming themselves (an engine on every emit) coalesce here — two
    /// loads and a store — instead of churning the wake queue; the value
    /// is folded into the post-tick sleep decision and cleared.
    Cycle pending_request = Component::kNeverWake;
  };
  struct Wake {
    Cycle cycle;
    std::uint32_t slot;
  };
  struct WakeOrder {
    bool operator()(const Wake& a, const Wake& b) const {
      return a.cycle > b.cycle;
    }
  };

  /// Calendar wake queue: near wake-ups (under kWheelSpan cycles ahead)
  /// land in a timing wheel — O(1) push and drain — and far ones in a
  /// binary heap.  Under saturation nearly every sleep is shorter than the
  /// wheel span, so the ~2-per-cycle heap push/pop pairs the all-heap
  /// queue paid collapse into vector appends; the long idle-gap sleeps of
  /// bursty workloads are rare and keep heap behaviour.
  ///
  /// Every bucket holds the wakes of exactly one cycle: a wake enters the
  /// wheel only when it is under kWheelSpan cycles ahead, every executed
  /// cycle drains its own bucket, and fast-forward never skips a due
  /// bucket (the kernel only jumps to next_cycle(), the exact minimum).
  /// So the wheel's wakes lie in [now, now + kWheelSpan), one cycle per
  /// bucket, and a mask of non-empty buckets finds the earliest in O(1).
  /// Fast-forward consults it on every idle decision — about 1.7M times
  /// in a 25M-cycle saturated run.
  class WakeQueue {
   public:
    static constexpr Cycle kWheelSpan = 64;  // one bucket per occupied_ bit

    /// `now` decides wheel vs heap; `w.cycle` must be > all prior drain
    /// cycles (the kernel only queues future wakes).
    void push(const Wake& w, Cycle now) {
      ++size_;
      if (w.cycle - now < kWheelSpan) {
        const auto b = static_cast<unsigned>(w.cycle & (kWheelSpan - 1));
        wheel_[b].push_back(w);
        occupied_ |= std::uint64_t{1} << b;
      } else {
        far_.push(w);
      }
    }

    bool empty() const { return size_ == 0; }

    /// Exact earliest pending cycle; Component::kNeverWake when empty.
    /// `now` is the next cycle to execute (every earlier one is drained):
    /// rotating the mask by it puts bucket `now` at bit 0, so the first
    /// set bit is the earliest wheel cycle.
    Cycle next_cycle(Cycle now) const {
      Cycle t = far_.empty() ? Component::kNeverWake : far_.top().cycle;
      if (occupied_ != 0) {
        const auto ahead = std::countr_zero(
            std::rotr(occupied_, static_cast<int>(now & (kWheelSpan - 1))));
        const Cycle c = wheel_[(now + ahead) & (kWheelSpan - 1)][0].cycle;
        if (c < t) t = c;
      }
      return t;
    }

    /// Invokes fn(Wake) for every wake due at or before `now`, removing
    /// it.  `now` must be monotone across calls and every executed cycle
    /// must call this once (the wheel bucket of each cycle is inspected
    /// exactly when that cycle runs).
    template <typename Fn>
    void drain_due(Cycle now, Fn&& fn) {
      if (size_ == 0) return;
      const auto b = static_cast<unsigned>(now & (kWheelSpan - 1));
      auto& bucket = wheel_[b];
      for (const Wake& w : bucket) {
        assert(w.cycle == now && "a wheel bucket holds one cycle's wakes");
        fn(w);
      }
      size_ -= bucket.size();
      bucket.clear();
      occupied_ &= ~(std::uint64_t{1} << b);
      while (!far_.empty() && far_.top().cycle <= now) {
        const Wake w = far_.top();
        far_.pop();
        --size_;
        fn(w);
      }
    }

   private:
    std::array<std::vector<Wake>, kWheelSpan> wheel_;
    std::uint64_t occupied_ = 0;  ///< bit b set while wheel_[b] is non-empty
    std::priority_queue<Wake, std::vector<Wake>, WakeOrder> far_;
    std::size_t size_ = 0;
  };

  /// The event kernel's active set and wake queue, plus the tick and
  /// wake-up tallies both kernels publish.
  struct TickContext {
    /// Bit `s` is set while slot s is active.  tick_active walks it with
    /// countr_zero, so a cycle costs one word load per 64 slots plus the
    /// ticks themselves, not a visit to every registered slot.
    std::vector<std::uint64_t> active;
    std::size_t active_count = 0;
    WakeQueue wake_queue;
    std::uint32_t current_slot = 0;  ///< the slot ticking (wake ordering)
    std::uint64_t ticks = 0;         ///< kernel.component_ticks cell
    std::uint64_t wakeups = 0;       ///< kernel.wakeups cell

    static std::uint64_t bit(std::uint32_t slot) {
      return std::uint64_t{1} << (slot % 64);
    }
    bool is_active(std::uint32_t slot) const {
      return (active[slot / 64] & bit(slot)) != 0;
    }
    void set_active(std::uint32_t slot) { active[slot / 64] |= bit(slot); }
    void set_idle(std::uint32_t slot) { active[slot / 64] &= ~bit(slot); }
  };

  enum class Phase : std::uint8_t { kIdle, kEvents, kTick };

  /// finish_tick keeps a component active (no-op ticks) rather than
  /// parking it when its next wake is at most this many cycles away; see
  /// the comment in finish_tick for the cost model.  It applies to the
  /// Mesh's one slot, not to its routers and NIs: the Mesh drops a member
  /// from its walk as soon as a tick leaves it without work.
  static constexpr Cycles kLingerWindow = 8;

  void wake_slot(std::uint32_t slot, Cycle at);
  /// Sets `slot`'s active bit, counting a wake-up; a no-op when the slot
  /// is already active.
  void activate(std::uint32_t slot);
  void push_wake(std::uint32_t slot, Cycle cycle);
  void drain_due_wakes();
  /// Earliest cycle with pending work (event or wake-up); kNeverWake if none.
  Cycle next_scheduled_cycle() const;
  bool can_fast_forward() const {
    return mode_ != SimMode::kStrictTick && active_components() == 0;
  }
  /// Jumps the clock to the next pending work, capped at `limit`.
  void fast_forward_to(Cycle limit);

  void run_events_phase();
  void run_end_of_cycle();
  /// Ticks the active slots in slot order (the event kernel's tick loop).
  void tick_active();
  /// Post-tick sleep decision: folds coalesced wake requests into the
  /// component's own next_wake answer.
  void finish_tick(std::uint32_t slot, Cycle now);

  Frequency clock_;
  SimMode mode_;
  telemetry::Telemetry telemetry_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t fast_forwarded_ = 0;

  std::vector<Component*> components_;  // registration order (slot order)
  std::vector<Slot> slots_;
  TickContext ctx_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;

  std::vector<std::function<void(Cycle)>> end_of_cycle_hooks_;

  Phase phase_ = Phase::kIdle;
};

}  // namespace panic
