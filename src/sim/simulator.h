// Event-driven simulation kernel with a dense-tick reference mode and a
// sharded parallel mode.
//
// The kernel advances a single global clock (the paper analyses the NIC at
// one core frequency, e.g. 500 MHz, §4.2).  Per executed cycle it first
// activates components whose wake-up is due, then fires any events
// scheduled for that cycle (DMA completions, timer expirations,
// packet-injection times), then ticks components once.
//
// Three modes:
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
//   * kParallelShards — the event kernel, spatially partitioned: each
//     component is assigned to a shard (Simulator::set_shard; by mesh
//     coordinates in the PANIC composition) and per executed cycle every
//     shard runs its slice of the tick loop on its own worker thread.
//     Components with no shard ("serial" components — watchdogs, workload
//     sources) tick on the coordinator after the parallel phase, matching
//     their registration-order position.  Cross-shard interactions are
//     conservative-synchronization exchanges at cycle boundaries: the NoC
//     stages boundary flits and credit returns during the parallel phase
//     and the kernel applies them between the barrier and the next cycle
//     (the 1-cycle link latency is the lookahead window).  See DESIGN.md
//     §"Sharded parallel kernel".
//
// All modes are cycle-identical: they agree on all simulation state at
// every cycle boundary — the same events fire in the same cycles, and
// statistics, queues and final cycle counts match exactly — though not on
// which ticks ran.  The event kernel skips quiescent components' ticks
// (observable no-ops by contract), and its NoC carries streaming wormhole
// bodies as trains instead of ticking each router per flit, settling them
// on every read (noc/mesh.h).  The equivalence is pinned by
// tests/sim/kernel_equivalence_test.cpp, tests/noc/train_test.cpp and the
// panic_fuzz three-way differential oracle.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/sim_mode.h"
#include "common/units.h"
#include "sim/component.h"
#include "telemetry/telemetry.h"

namespace panic {

class Simulator {
 public:
  /// `threads` is only meaningful in kParallelShards mode: the number of
  /// shards (== worker threads, the coordinator doubles as shard 0).
  /// 0 resolves through sim_threads() (--threads/PANIC_THREADS), falling
  /// back to min(hardware_concurrency, 8).  The count never changes
  /// simulation results, only how the tick loop is partitioned.
  explicit Simulator(Frequency clock = Frequency::megahertz(500),
                     SimMode mode = SimMode::kEventDriven, int threads = 0);
  ~Simulator();

  SimMode mode() const { return mode_; }

  /// Shard count (>= 1) in kParallelShards mode, 0 otherwise.
  int num_shards() const { return num_shards_; }

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

  /// Assigns `c` to shard `shard` (in [0, num_shards())); -1 reverts to
  /// serial.  Only meaningful in kParallelShards mode, and only before the
  /// first step: the shard map is sealed when the clock starts.  Serial
  /// components must occupy a registration-order suffix (checked at seal
  /// time) so the coordinator can tick them after the parallel phase in
  /// exactly their sequential position.
  void set_shard(Component* c, int shard);

  /// The shard `c` is assigned to, or -1 (serial / non-parallel mode).
  int shard_of(const Component* c) const {
    return slots_[c->slot_].shard;
  }

  /// Schedules `fn` to run at the start of `cycle`.  Events at the same
  /// cycle run in scheduling order.  A `cycle` in the past (or equal to
  /// the current cycle once the event phase has passed) is deterministic
  /// in all modes: the event fires at the start of the next executed
  /// cycle, and fast-forward never skips it — see
  /// tests/sim/simulator_test.cpp (LateEvent*).  Safe to call from a shard
  /// worker mid-tick: the request is staged per shard and merged in
  /// registration order at the barrier, reproducing the sequential
  /// scheduling order exactly.
  void schedule_at(Cycle cycle, std::function<void()> fn);

  /// Schedules `fn` to run `delay` cycles from now.
  void schedule_in(Cycles delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Activates `c` so it ticks at cycle `at` (clamped to the present; a
  /// component that already ticked this cycle is deferred to the next one,
  /// exactly when a dense tick would first observe the caller's effect).
  /// No-op in strict-tick mode.  In parallel mode a shard worker may only
  /// wake components of its own shard; cross-shard hand-offs go through
  /// the staged boundary exchange instead.
  void wake(Component* c, Cycle at);

  /// Registers a hook that runs on the coordinator right after the
  /// parallel phase barrier and before serial-suffix components tick —
  /// where the NoC delivers staged boundary flits, so everything a serial
  /// component (watchdog probes included) observes matches the sequential
  /// kernels.  Never invoked outside kParallelShards mode.
  void add_post_parallel_hook(std::function<void(Cycle)> fn) {
    post_parallel_hooks_.push_back(std::move(fn));
  }

  /// Registers a hook that runs at the very end of every executed cycle,
  /// after all ticks, in every mode — where the NoC applies staged credit
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
  /// Total Component::tick invocations across the run (sums the per-shard
  /// cells in parallel mode).
  std::uint64_t component_ticks() const;
  /// Transitions of a component from quiescent to active.
  std::uint64_t wakeups() const;
  /// Cycles skipped without executing (empty active set, no due work).
  std::uint64_t fast_forwarded_cycles() const { return fast_forwarded_; }
  /// Number of currently active components.
  std::size_t active_components() const;

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
    /// Index into the owning tick context's `slots` and active bitmap: the
    /// slot number itself in the coordinator's context, the rank among the
    /// shard's slots once sealed into a shard.
    std::uint32_t local = 0;
    /// Owning shard (-1 = serial); only used in kParallelShards mode.
    std::int16_t shard = -1;
    /// Earliest future wake-up already queued for this slot (dedups heap
    /// pushes; stale heap entries are ignored on pop).
    Cycle pending_wake = Component::kNeverWake;
    /// Earliest wake requested while the slot was ACTIVE.  Hot components
    /// re-arming themselves (a router on every accepted flit) coalesce
    /// here — two loads and a store — instead of churning the wake heap;
    /// the value is folded into the post-tick sleep decision and cleared.
    Cycle pending_request = Component::kNeverWake;
    /// Consecutive ticks without sleeping; drives the hot-slot poll skip
    /// in finish_tick.  A pure function of the slot's own tick history, so
    /// it is identical across shard layouts.
    std::uint32_t streak = 0;
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

  /// Calendar wake queue: near wake-ups (within kWheelSpan cycles) land in
  /// a timing wheel — O(1) push, O(1) amortized drain — and far ones in a
  /// binary heap.  Under saturation nearly every sleep is shorter than the
  /// wheel span, so the ~2-per-cycle heap push/pop pairs the all-heap
  /// queue paid collapse into vector appends; the long idle-gap sleeps of
  /// bursty workloads are rare and keep heap behaviour.  Fast-forward
  /// never skips a due bucket: the kernel only jumps to next_cycle(), the
  /// exact minimum, so no pending wake can lie inside a skipped range.
  class WakeQueue {
   public:
    static constexpr Cycle kWheelSpan = 64;  // power of two

    /// `now` decides wheel vs heap; `w.cycle` must be > all prior drain
    /// cycles (the kernel only queues future wakes).
    void push(const Wake& w, Cycle now) {
      ++size_;
      if (w.cycle - now < kWheelSpan) {
        wheel_[w.cycle & (kWheelSpan - 1)].push_back(w);
      } else {
        far_.push(w);
      }
    }

    bool empty() const { return size_ == 0; }

    /// Exact earliest pending cycle; Component::kNeverWake when empty.
    /// O(span) — consulted on fast-forward decisions only, never in the
    /// saturated per-cycle path.
    Cycle next_cycle() const {
      Cycle t = Component::kNeverWake;
      if (!far_.empty()) t = far_.top().cycle;
      for (const auto& bucket : wheel_) {
        for (const Wake& w : bucket) {
          if (w.cycle < t) t = w.cycle;
        }
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
      auto& bucket = wheel_[now & (kWheelSpan - 1)];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].cycle <= now) {
          --size_;
          fn(bucket[i]);
        } else {
          bucket[keep++] = bucket[i];
        }
      }
      bucket.resize(keep);
      while (!far_.empty() && far_.top().cycle <= now) {
        const Wake w = far_.top();
        far_.pop();
        --size_;
        fn(w);
      }
    }

    /// Removes and returns every pending wake (seal-time re-homing).
    std::vector<Wake> drain_all() {
      std::vector<Wake> out;
      out.reserve(size_);
      for (auto& bucket : wheel_) {
        out.insert(out.end(), bucket.begin(), bucket.end());
        bucket.clear();
      }
      while (!far_.empty()) {
        out.push_back(far_.top());
        far_.pop();
      }
      size_ = 0;
      return out;
    }

   private:
    std::array<std::vector<Wake>, kWheelSpan> wheel_;
    std::priority_queue<Wake, std::vector<Wake>, WakeOrder> far_;
    std::size_t size_ = 0;
  };

  /// An event scheduled from inside a shard worker's tick.  Merged into
  /// the global queue at the barrier, ordered by (scheduling slot, per-
  /// slot sequence) — the order the sequential tick loop would have pushed
  /// them in.
  struct StagedEvent {
    std::uint32_t slot;
    std::uint64_t seq;
    Cycle cycle;
    std::function<void()> fn;
  };

  /// The slots one thread ticks, with their active set.  The coordinator's
  /// context lists every slot (local index == slot number): the sequential
  /// event kernel ticks it, and so does the parallel kernel's serial
  /// suffix, whose bits are the only ones set there once the shards are
  /// sealed.  Each shard has a context over its own slots, so during a
  /// tick phase no two threads write the same bitmap word.
  struct TickContext {
    std::vector<std::uint32_t> slots;  ///< local index -> slot, ascending
    /// Bit `l` is set while slots[l] is active.  tick_active walks it with
    /// countr_zero, so a cycle costs one word load per 64 slots plus the
    /// ticks themselves, not a visit to every registered slot.
    std::vector<std::uint64_t> active;
    std::size_t active_count = 0;
    WakeQueue wake_queue;
    std::uint32_t current_slot = 0;  ///< the slot ticking (wake ordering)
    std::uint64_t ticks = 0;         ///< kernel.component_ticks cell
    std::uint64_t wakeups = 0;       ///< kernel.wakeups cell

    void append(std::uint32_t slot) {
      if (slots.size() % 64 == 0) active.push_back(0);
      slots.push_back(slot);
    }
    static std::uint64_t bit(std::uint32_t local) {
      return std::uint64_t{1} << (local % 64);
    }
    bool is_active(std::uint32_t local) const {
      return (active[local / 64] & bit(local)) != 0;
    }
    void set_active(std::uint32_t local) { active[local / 64] |= bit(local); }
    void set_idle(std::uint32_t local) { active[local / 64] &= ~bit(local); }
  };

  /// Per-shard kernel state.  Heap-allocated once in the constructor so
  /// the telemetry cells have stable addresses; only the owning worker
  /// touches it during the parallel phase.
  struct ShardState : TickContext {
    int index = 0;
    std::vector<StagedEvent> staged_events;
    std::uint64_t staged_seq = 0;
  };

  enum class Phase : std::uint8_t { kIdle, kEvents, kTick };

  /// finish_tick keeps a component active (no-op ticks) rather than
  /// parking it when its next wake is at most this many cycles away; see
  /// the comment in finish_tick for the cost model.
  static constexpr Cycles kLingerWindow = 8;
  /// After this many consecutive ticks a slot counts as hot and its
  /// next_wake poll runs only every kHotStreak-th tick (power of two).
  static constexpr std::uint32_t kHotStreak = 16;

  /// The tick context owning `s`'s bookkeeping: its shard's once sealed,
  /// the coordinator's otherwise.
  TickContext& owner(const Slot& s) {
    if (sealed_ && s.shard >= 0) return *shards_[s.shard];
    return serial_;
  }

  void wake_slot(std::uint32_t slot, Cycle at);
  /// Sets `slot`'s bit in `ctx`, its owning context, counting a wake-up;
  /// a no-op when the slot is already active.
  void activate(TickContext& ctx, std::uint32_t slot);
  void push_wake(WakeQueue& q, std::uint32_t slot, Cycle cycle);
  void drain_due_wakes(TickContext& ctx);
  /// Earliest cycle with pending work (event or wake-up); kNeverWake if none.
  Cycle next_scheduled_cycle() const;
  bool can_fast_forward() const {
    return mode_ != SimMode::kStrictTick && active_components() == 0;
  }
  /// Jumps the clock to the next pending work, capped at `limit`.
  void fast_forward_to(Cycle limit);

  void run_events_phase();
  void run_end_of_cycle();
  /// Ticks `ctx`'s active slots in slot order: the one tick loop of the
  /// sequential event kernel, of every shard and of the serial suffix.
  void tick_active(TickContext& ctx);
  /// Post-tick sleep decision: folds coalesced wake requests into the
  /// component's own next_wake answer.
  void finish_tick(std::uint32_t slot, Cycle now, TickContext& ctx);

  // --- Parallel-mode machinery. ---
  void seal_shards();
  void step_parallel();
  void merge_staged_events();
  void worker_main(int shard_index);
  void stop_workers();

  Frequency clock_;
  SimMode mode_;
  telemetry::Telemetry telemetry_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t fast_forwarded_ = 0;

  std::vector<Component*> components_;  // registration order (slot order)
  std::vector<Slot> slots_;
  /// The coordinator's tick context: every slot in the sequential kernels,
  /// the serial suffix once the parallel kernel seals its shards.
  TickContext serial_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;

  std::vector<std::function<void(Cycle)>> post_parallel_hooks_;
  std::vector<std::function<void(Cycle)>> end_of_cycle_hooks_;

  Phase phase_ = Phase::kIdle;

  // --- kParallelShards state. ---
  int num_shards_ = 0;
  bool sealed_ = false;
  bool any_sharded_ = false;  ///< false => degenerate sequential execution
  /// First slot ticked by the coordinator after the parallel phase (==
  /// slots_.size() when every slot is sharded).  Sharded slots occupy
  /// [0, first_serial_slot_), serial slots the rest.
  std::uint32_t first_serial_slot_ = 0;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> workers_done_{0};
  std::atomic<bool> stopping_{false};

  /// The shard context of the calling thread during the parallel phase
  /// (nullptr on the coordinator outside it, and always in serial modes).
  static thread_local ShardState* tls_shard_;
};

}  // namespace panic
