// The logical scheduler's per-engine queue (§3.1.3) — a PIFO block.
//
// Every engine owns one of these.  The queue is a push-in-first-out
// priority queue in the Programmable Packet Scheduling sense: a compiled
// rank program (src/engines/rank_program.h) runs once at enqueue, the
// heap orders messages by the resulting rank, and dequeue always pops the
// minimum.  The paper notes this "although simple ... is able to
// implement any arbitrary local scheduling algorithm" (citing UPS) — rank
// programs make that literal: slack priority, FIFO, WFQ, STFQ, EDF and
// strict priority are all built-in rank programs, and scenarios can
// supply their own (`sched pifo rank=<<END`).
//
// Ordering is the TOTAL order (rank, enqueue-seq): lower rank first, and
// equal ranks dequeue in arrival order.  That tie-break is part of the
// contract — both simulation kernels replay the same enqueue
// sequence, so dequeue order is kernel-independent (pinned by
// tests/sched/pifo_conformance_test.cpp).
//
// The on-chip network is lossless; drops happen here, at enqueue, when the
// queue is full (§3.1.2 "If it is necessary to drop messages, this is done
// by the logical scheduler").  A message dropped at admission does not
// advance the rank program's per-flow state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "engines/rank_program.h"
#include "net/message.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace panic::engines {

/// What to do when a message arrives at a full queue — one of the paper's
/// §6 open questions ("lossless forwarding ... while also providing lossy
/// forwarding to ensure that other messages are dropped as needed").
enum class DropPolicy : std::uint8_t {
  kDropArrival,   ///< tail-drop the arriving message
  kEvictLoosest,  ///< admit the arrival by evicting the queued message
                  ///< with the largest rank (if looser than the arrival)
};

class SchedulerQueue {
 public:
  /// `spec` may be a SchedSpec or a SchedKind (which converts).  A
  /// kCustom spec whose program does not compile throws
  /// std::runtime_error — scenario parsing validates first, so this only
  /// trips on programmatic misuse.
  SchedulerQueue(const SchedSpec& spec, std::size_t capacity,
                 DropPolicy drop_policy = DropPolicy::kDropArrival);

  SchedKind kind() const { return spec_.kind; }
  const SchedSpec& spec() const { return spec_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() >= capacity_; }

  /// Enqueues `msg` at the rank its program computes.  Returns false and
  /// drops the message if the queue is full (after any kEvictLoosest
  /// eviction).
  bool try_enqueue(MessagePtr msg, Cycle now);

  /// Removes and returns the minimum-rank message (nullptr if empty).
  MessagePtr dequeue(Cycle now);

  /// Removes every queued message WITHOUT touching the dequeue/drop
  /// statistics — fault drains (a dead engine discarding its queue) are
  /// not scheduling decisions.  The caller assigns fates.
  std::vector<MessagePtr> evict_all();

  /// Slack of the message that would dequeue next (0 if empty).
  std::uint32_t head_slack() const;

  /// Rank of the message that would dequeue next (0 if empty).
  std::uint64_t head_rank() const;

  /// The queue's virtual time: the maximum rank dequeued so far (STFQ /
  /// WFQ programs read this as `vtime`).
  std::uint64_t vtime() const { return vtime_; }

  // --- Property-audit hooks (src/proptest / panic_fuzz). ---

  /// Process-wide audit switch.  When on, every dequeue cross-checks the
  /// chosen message against everything left in the queue under the
  /// explicit (rank, seq) total order — deliberately NOT the heap's own
  /// comparator, so comparator bugs (see set_selftest_tiebug) are caught
  /// — and against a shadow copy of the queue whose ranks come from an
  /// independent interpreted evaluation of the same rank program.
  /// O(queue depth) per dequeue, so it is off by default and only armed
  /// by the fuzz harness and its tests.
  static void set_audit(bool on);
  static bool audit_enabled();

  /// Synthetic scheduling bug for harness self-tests: when armed, a
  /// dequeue from a queue holding >= 2 messages returns the SECOND-best
  /// message (a planted off-by-one).  The audit above flags it, so
  /// panic_fuzz must detect it, shrink the scenario and emit a replay —
  /// pinned by tests/proptest/minimizer_selftest.cpp.  Armed explicitly
  /// or via a non-zero PANIC_FUZZ_SELFTEST environment variable (read
  /// once, on first query, unless the setter ran first).
  static void set_selftest_bug(bool on);
  static bool selftest_bug();

  /// Second planted bug, in the tie-break itself: when armed, equal-rank
  /// messages dequeue NEWEST-first instead of oldest-first (an off-by-one
  /// in the comparator).  Because it lives inside the heap's Order, only
  /// an audit that re-derives the (rank, seq) order independently can see
  /// it — which is exactly what the audit above does.  Armed explicitly
  /// or via PANIC_FUZZ_TIE_SELFTEST (same once-only rules as above);
  /// exercised by `panic_fuzz --selftest-tie`.
  static void set_selftest_tiebug(bool on);
  static bool selftest_tiebug();

  /// Dequeues the audit flagged on this queue (also published as
  /// "<prefix>.audit_violations").
  std::uint64_t audit_violations() const { return audit_violations_; }

  /// Publishes this queue's counters under `prefix` (e.g.
  /// "engine.ipsec_rx.queue") — called by the owning engine's
  /// register_telemetry.  A queue that evaluates its rank program per
  /// message (FastPath::kProgram) additionally publishes the
  /// "<prefix>.pifo.*" family (rank_evals, vtime, flows); a queue whose
  /// rank is the slack field or a constant has nothing to report there.
  void register_metrics(telemetry::MetricsRegistry& m,
                        const std::string& prefix);

  /// Attributes enqueue/dequeue/drop trace events to `where` (the owning
  /// engine's trace tag).  nullptr detaches.
  void bind_tracer(telemetry::MessageTracer* tracer, std::uint16_t where) {
    tracer_ = tracer;
    trace_where_ = where;
  }

  // --- Counters (prefer the registry / Simulator::snapshot()). ---
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t max_depth() const { return max_depth_; }
  /// Total cycles messages spent queued (divide by dequeued() for mean).
  std::uint64_t total_wait_cycles() const { return total_wait_; }
  std::uint64_t dequeued() const { return dequeued_; }

 private:
  struct Item {
    MessagePtr msg;
    std::uint64_t rank;  // computed once, at enqueue (PIFO semantics)
    std::uint64_t seq;   // arrival order; tie-break on equal ranks
    Cycle enqueued_at;
  };
  struct Order {
    bool tiebug;
    // Heap comparator: returns true when a is LOWER priority than b
    // (dequeues later).  Total order (rank, seq); the planted tie bug
    // inverts the seq leg only.
    bool operator()(const Item& a, const Item& b) const {
      if (a.rank != b.rank) return a.rank > b.rank;
      return tiebug ? a.seq < b.seq : a.seq > b.seq;
    }
  };
  /// Shadow entry for the audit: the same message ranked by a fresh
  /// interpreted evaluation over independent state.
  struct ShadowItem {
    std::uint64_t rank;
    std::uint64_t seq;
  };

  std::uint64_t compute_rank(const Message& msg, Cycle now);
  RankInputs inputs_for(const Message& msg, Cycle now,
                        std::uint64_t vtime) const;
  void shadow_enqueue(const Message& msg, Cycle now);
  void shadow_erase(std::uint64_t seq);
  void shadow_check_dequeue(const Item& item);

  void trace(telemetry::TraceEventKind kind, Cycle cycle, const Message& msg) {
    if (tracer_ != nullptr) {
      tracer_->record(kind, cycle, msg.id, trace_where_, msg.slack);
    }
  }

  SchedSpec spec_;
  std::size_t capacity_;
  DropPolicy drop_policy_;
  std::shared_ptr<const RankProgram> program_;
  enum class FastPath : std::uint8_t { kSlackField, kConst, kProgram };
  FastPath fast_ = FastPath::kSlackField;
  std::uint64_t const_rank_ = 0;

  std::vector<Item> items_;  // maintained as a heap under Order
  std::uint64_t next_seq_ = 0;
  std::uint64_t vtime_ = 0;
  RankState state_;
  std::vector<std::uint64_t> scratch_;

  // Audit shadow (populated only while the process-wide audit is armed).
  std::vector<ShadowItem> shadow_;
  RankState shadow_state_;
  std::vector<std::uint64_t> shadow_scratch_;
  std::uint64_t shadow_vtime_ = 0;

  telemetry::MessageTracer* tracer_ = nullptr;
  std::uint16_t trace_where_ = 0;

  std::uint64_t enqueued_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t dequeued_ = 0;
  std::uint64_t total_wait_ = 0;
  std::uint64_t max_depth_ = 0;
  std::uint64_t audit_violations_ = 0;
  std::uint64_t rank_evals_ = 0;
};

}  // namespace panic::engines
