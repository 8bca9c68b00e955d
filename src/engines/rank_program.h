// Compiled rank programs for the PIFO scheduler (§3.1.3).
//
// Programmable Packet Scheduling (Sivaraman et al., PAPERS.md) shows a
// single primitive — a push-in-first-out queue ordered by a small "rank"
// computation run at enqueue — expresses WFQ, STFQ, EDF, strict priority
// and deadline scheduling.  This module compiles such rank computations
// from text, using the shared src/lang expression language (the same one
// p4lite's set_expr action speaks).
//
// A rank program is a list of `var = expression` statements, one per line
// (or ';'-separated), executed top to bottom at every enqueue:
//
//     # two-tenant weighted fair queueing
//     flow.start  = max(flow.finish, vtime)
//     flow.finish = flow.start + (bytes * 1024) / weight
//     rank        = flow.start
//
// Assignable variables:
//   rank        the message's rank; LOWER dequeues FIRST.  Every program
//               must assign it at least once (its value after the last
//               statement wins).
//   flow.<x>    per-flow state, persisted across enqueues of the same
//               tenant, initially 0.  A scheduling flow is a tenant:
//               messages carry no finer flow id.
//   queue.<x>   per-queue state, persisted across all enqueues.
// Read-only inputs (all uint64):
//   slack       chain-header slack at this engine
//   tenant      scheduling tenant id
//   bytes       wire size of the message (payload + chain header)
//   now         current cycle
//   created     cycle the workload created the message
//   seq         per-queue arrival sequence number (0, 1, ...)
//   vtime       the queue's virtual time: the max rank dequeued so far
//   weight      this tenant's configured weight (default 1; `weight` lines
//               in the scenario / SchedSpec::weights)
//   kind        MessageKind as an integer
//
// Per-flow/queue state written by a statement is only COMMITTED when the
// message is actually admitted; a message dropped at a full queue does
// not advance virtual finish times.
//
// Compile errors are "line N: reason" with N 1-based into the program
// text.  Evaluation is total (see lang/expr.h), so every well-formed
// program — including fuzz-generated ones — is safe on every input.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/units.h"
#include "lang/expr.h"

namespace panic::engines {

enum class SchedKind : std::uint8_t {
  kSlack,   ///< rank = slack (the default: PANIC's slack priority)
  kFifo,    ///< rank = 0 (arrival order; the baseline)
  kWfq,     ///< weighted fair queueing (start-time, per-tenant weights)
  kStfq,    ///< start-time fair queueing (WFQ with unit weights, raw bytes)
  kEdf,     ///< earliest deadline first: rank = created + slack
  kPrio,    ///< strict priority: rank = tenant (lower tenant id wins)
  kCustom,  ///< a `sched pifo rank=<<END ... END` program
};

/// The `sched` keywords ("pifo" names kCustom).
inline constexpr codec::Name<SchedKind> kSchedKindNames[] = {
    {SchedKind::kSlack, "slack"}, {SchedKind::kFifo, "fifo"},
    {SchedKind::kWfq, "wfq"},     {SchedKind::kStfq, "stfq"},
    {SchedKind::kEdf, "edf"},     {SchedKind::kPrio, "prio"},
    {SchedKind::kCustom, "pifo"},
};

inline const char* to_string(SchedKind kind) {
  return codec::name_of(kSchedKindNames, kind).data();
}

/// The canonical rank-program source for a built-in policy.
std::string builtin_rank_source(SchedKind kind);

/// Full scheduling specification: a policy kind, its rank program (for
/// kCustom) and per-tenant WFQ weights.  Implicitly convertible from a
/// SchedKind.
struct SchedSpec {
  SchedKind kind = SchedKind::kSlack;
  std::string rank_source;  ///< kCustom only; others use builtin source
  /// tenant -> weight pairs, kept sorted by tenant; absent tenants weigh 1.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> weights;

  SchedSpec() = default;
  SchedSpec(SchedKind k) : kind(k) {}  // NOLINT(runtime/explicit)

  /// The rank-program text this spec compiles to.
  std::string source() const {
    return kind == SchedKind::kCustom ? rank_source
                                      : builtin_rank_source(kind);
  }
  std::uint32_t weight_for(std::uint16_t tenant) const;
  void set_weight(std::uint16_t tenant, std::uint32_t weight);

  friend bool operator==(const SchedSpec& a, const SchedSpec& b) {
    return a.kind == b.kind && a.rank_source == b.rank_source &&
           a.weights == b.weights;
  }
  friend bool operator!=(const SchedSpec& a, const SchedSpec& b) {
    return !(a == b);
  }
};

/// The read-only inputs one rank evaluation sees (header comment order).
struct RankInputs {
  std::uint64_t slack = 0;
  std::uint64_t tenant = 0;
  std::uint64_t bytes = 0;
  std::uint64_t now = 0;
  std::uint64_t created = 0;
  std::uint64_t seq = 0;
  std::uint64_t vtime = 0;
  std::uint64_t weight = 1;
  std::uint64_t kind = 0;
};

/// Persistent state one queue keeps for one rank program.
struct RankState {
  /// flow.* state by tenant id.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> flows;
  std::vector<std::uint64_t> queue;
};

class RankProgram {
 public:
  /// Compiles `source`; on failure returns nullopt and sets *error to
  /// "line N: reason".
  static std::optional<RankProgram> compile(std::string_view source,
                                            std::string* error);
  /// Compiles the program a SchedSpec names.  Built-in sources always
  /// compile (pinned by tests/sched/rank_program_test.cpp).
  static std::shared_ptr<const RankProgram> compile_spec(
      const SchedSpec& spec, std::string* error);

  bool stateful() const { return flow_slots_ > 0 || queue_slots_ > 0; }

  /// Fast-path introspection: exactly `rank = slack` / `rank = <const>`.
  bool trivial_slack() const { return trivial_slack_; }
  bool trivial_const(std::uint64_t* value) const {
    if (!trivial_const_) return false;
    if (value != nullptr) *value = const_rank_;
    return true;
  }

  /// Runs the program against `in` and `state` WITHOUT mutating state;
  /// all variable values land in `scratch` (resized as needed).  Returns
  /// the rank.  Call commit() with the same scratch and the message's
  /// tenant to persist the flow./queue. writes once it is admitted.
  std::uint64_t evaluate(const RankInputs& in, const RankState& state,
                         std::vector<std::uint64_t>& scratch) const;
  void commit(RankState& state, const std::vector<std::uint64_t>& scratch,
              std::uint64_t tenant) const;

  /// One-shot convenience for reference models: evaluate + commit.
  std::uint64_t rank_and_commit(const RankInputs& in, RankState& state,
                                std::vector<std::uint64_t>& scratch) const {
    const std::uint64_t r = evaluate(in, state, scratch);
    commit(state, scratch, in.tenant);
    return r;
  }

  const std::string& source() const { return source_; }

 private:
  struct Statement {
    std::uint32_t dst = 0;  // slot index
    lang::Expr expr;
    int line = 0;
  };
  /// One flow./queue. state variable, at slot kStateBase + its index in
  /// state_vars_; `ordinal` is its position within the per-flow (or
  /// per-queue) state vector.
  struct StateVar {
    bool is_flow = true;
    std::uint32_t ordinal = 0;
  };

  // Slot layout: [0..8] read-only inputs, [9] rank, then state vars in
  // first-mention order.
  static constexpr std::uint32_t kInputCount = 9;
  static constexpr std::uint32_t kRankSlot = kInputCount;
  static constexpr std::uint32_t kStateBase = kRankSlot + 1;
  std::uint32_t total_slots() const {
    return kStateBase + static_cast<std::uint32_t>(state_vars_.size());
  }

  std::string source_;
  std::vector<Statement> statements_;
  std::vector<StateVar> state_vars_;
  std::uint32_t flow_slots_ = 0;
  std::uint32_t queue_slots_ = 0;
  bool trivial_slack_ = false;
  bool trivial_const_ = false;
  std::uint64_t const_rank_ = 0;
};

}  // namespace panic::engines
