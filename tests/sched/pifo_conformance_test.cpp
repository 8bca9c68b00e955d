// Policy-conformance battery for the PIFO scheduler: every built-in rank
// policy is checked against an independent textbook reference model (no
// RankProgram involved) over adversarial arrival patterns, the
// (rank, enqueue-seq) tie-break is pinned, overflow accounting closes the
// conservation ledger under custom programs, and one WFQ and one custom
// rank-program scenario must be cycle- and metric-identical across both
// simulation kernels.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engines/sched_queue.h"
#include "fault/invariants.h"
#include "proptest/runner.h"
#include "telemetry/metrics.h"

namespace panic::engines {
namespace {

struct Arrival {
  std::uint16_t tenant;
  std::uint32_t slack;
  std::size_t payload;
};

/// Textbook re-implementation of every built-in policy, deliberately
/// sharing no code with RankProgram: per-tenant virtual start/finish
/// times for WFQ/STFQ, direct formulas for the rest, dequeue = linear
/// scan for the (rank, seq) minimum.
class ReferenceModel {
 public:
  explicit ReferenceModel(const SchedSpec& spec) : spec_(spec) {}

  void enqueue(const Arrival& a, std::uint64_t bytes, Cycle created,
               std::uint32_t id) {
    std::uint64_t rank = 0;
    switch (spec_.kind) {
      case SchedKind::kSlack:
        rank = a.slack;
        break;
      case SchedKind::kFifo:
        rank = 0;
        break;
      case SchedKind::kWfq: {
        std::uint64_t& finish = finish_[a.tenant];
        const std::uint64_t start = std::max(finish, vtime_);
        finish = start + bytes * 1024 / spec_.weight_for(a.tenant);
        rank = start;
        break;
      }
      case SchedKind::kStfq: {
        std::uint64_t& finish = finish_[a.tenant];
        const std::uint64_t start = std::max(finish, vtime_);
        finish = start + bytes;
        rank = start;
        break;
      }
      case SchedKind::kEdf:
        rank = created + a.slack;
        break;
      case SchedKind::kPrio:
        rank = a.tenant;
        break;
      case SchedKind::kCustom:
        ADD_FAILURE() << "reference model only covers built-ins";
        break;
    }
    queued_.push_back(Entry{rank, seq_++, id});
  }

  std::optional<std::uint32_t> dequeue() {
    if (queued_.empty()) return std::nullopt;
    std::size_t best = 0;
    for (std::size_t i = 1; i < queued_.size(); ++i) {
      if (queued_[i].rank < queued_[best].rank ||
          (queued_[i].rank == queued_[best].rank &&
           queued_[i].seq < queued_[best].seq)) {
        best = i;
      }
    }
    vtime_ = std::max(vtime_, queued_[best].rank);
    const std::uint32_t id = queued_[best].id;
    queued_.erase(queued_.begin() + static_cast<std::ptrdiff_t>(best));
    return id;
  }

 private:
  struct Entry {
    std::uint64_t rank;
    std::uint64_t seq;
    std::uint32_t id;
  };
  SchedSpec spec_;
  std::map<std::uint16_t, std::uint64_t> finish_;
  std::uint64_t vtime_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<Entry> queued_;
};

MessagePtr msg_for(const Arrival& a, std::uint32_t id, Cycle now) {
  auto msg = make_message();
  msg->tenant = TenantId{a.tenant};
  msg->dma_addr = id;  // a tag nothing on the queue path reads
  msg->slack = a.slack;
  msg->data.resize(a.payload);
  msg->created_at = now;
  return msg;
}

/// Feeds the same arrivals through the real queue and the reference model
/// under one enqueue/dequeue interleaving and requires identical dequeue
/// orders (messages identified by the dma_addr tag).
void drive_and_compare(const SchedSpec& spec,
                       const std::vector<Arrival>& arrivals,
                       std::size_t enq_chunk, std::size_t deq_chunk) {
  SchedulerQueue q(spec, arrivals.size() + 1);
  ReferenceModel ref(spec);
  std::vector<std::uint32_t> got, want;
  Cycle now = 0;
  const auto pop_both = [&]() -> bool {
    const auto expect = ref.dequeue();
    auto msg = q.dequeue(++now);
    if (!expect.has_value()) {
      EXPECT_EQ(msg, nullptr);
      return false;
    }
    if (msg == nullptr) {
      ADD_FAILURE() << "queue empty while reference still holds "
                    << *expect;
      return false;
    }
    want.push_back(*expect);
    got.push_back(static_cast<std::uint32_t>(msg->dma_addr));
    msg->set_fate(MessageFate::kConsumed);
    return true;
  };

  std::size_t next = 0;
  while (next < arrivals.size()) {
    for (std::size_t i = 0; i < enq_chunk && next < arrivals.size(); ++i) {
      const Arrival& a = arrivals[next];
      auto msg = msg_for(a, static_cast<std::uint32_t>(next), ++now);
      const std::uint64_t bytes = msg->wire_size();
      ref.enqueue(a, bytes, msg->created_at, static_cast<std::uint32_t>(next));
      EXPECT_TRUE(q.try_enqueue(std::move(msg), now));
      ++next;
    }
    for (std::size_t i = 0; i < deq_chunk; ++i) {
      if (!pop_both()) break;
    }
  }
  while (pop_both()) {
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(q.audit_violations(), 0u);
}

/// Ties, priority inversions, single-tenant runs and mixed frame sizes.
std::vector<Arrival> adversarial_mix() {
  const std::uint32_t slacks[] = {50, 50, 10, 700, 50, 0, 10, 999, 50, 3};
  const std::size_t sizes[] = {0, 64, 1000, 200, 64, 1500, 64};
  std::vector<Arrival> v;
  for (std::uint32_t i = 0; i < 30; ++i) {
    v.push_back(Arrival{static_cast<std::uint16_t>(1 + i % 3),
                        slacks[i % 10], sizes[i % 7]});
  }
  return v;
}

/// Tenant 1 floods big frames; tenant 2 trickles small ones — the fair
/// policies must keep serving tenant 2 (and every policy must still match
/// the reference exactly).
std::vector<Arrival> starvation_probe() {
  std::vector<Arrival> v;
  for (int i = 0; i < 24; ++i) {
    if (i % 6 == 5) {
      v.push_back(Arrival{2, 100, 64});
    } else {
      v.push_back(Arrival{1, 100, 1200});
    }
  }
  return v;
}

/// Every arrival identical — nothing but the tie-break orders them.
std::vector<Arrival> all_ties() {
  return std::vector<Arrival>(16, Arrival{1, 77, 128});
}

constexpr std::size_t kAll = 1u << 20;

TEST(PifoConformance, BuiltinsMatchReferenceOnAdversarialPatterns) {
  SchedulerQueue::set_audit(true);  // shadow re-evaluation rides along
  const std::pair<std::size_t, std::size_t> patterns[] = {
      {kAll, 0},  // full burst, then drain
      {4, 2},     // queue grows while draining
      {1, 1},     // lockstep
  };
  const std::vector<std::vector<Arrival>> mixes = {
      adversarial_mix(), starvation_probe(), all_ties()};
  for (const SchedKind kind :
       {SchedKind::kSlack, SchedKind::kFifo, SchedKind::kWfq,
        SchedKind::kStfq, SchedKind::kEdf, SchedKind::kPrio}) {
    SchedSpec spec(kind);
    if (kind == SchedKind::kWfq) {
      spec.set_weight(1, 4);
      spec.set_weight(2, 1);
      spec.set_weight(3, 2);
    }
    for (std::size_t m = 0; m < mixes.size(); ++m) {
      for (const auto& [enq, deq] : patterns) {
        SCOPED_TRACE(std::string(to_string(kind)) + " mix=" +
                     std::to_string(m) + " pattern=" + std::to_string(enq) +
                     "/" + std::to_string(deq));
        drive_and_compare(spec, mixes[m], enq, deq);
      }
    }
  }
  SchedulerQueue::set_audit(false);
}

TEST(PifoConformance, EqualRanksDequeueInArrivalOrder) {
  // The (rank, seq) tie-break is part of the contract: under any policy
  // that ranks these arrivals equal — including a custom constant
  // program — dequeue order IS arrival order, even with interleaving.
  SchedSpec constant(SchedKind::kCustom);
  constant.rank_source = "rank = 42\n";
  std::vector<SchedSpec> specs = {SchedSpec(SchedKind::kSlack),
                                  SchedSpec(SchedKind::kFifo),
                                  SchedSpec(SchedKind::kPrio), constant};
  for (const SchedSpec& spec : specs) {
    SchedulerQueue q(spec, 32);
    std::vector<std::uint32_t> got;
    std::uint32_t id = 0;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 4; ++i) {
        q.try_enqueue(msg_for(Arrival{1, 77, 64}, id++, round), round);
      }
      auto msg = q.dequeue(round);
      ASSERT_NE(msg, nullptr);
      got.push_back(static_cast<std::uint32_t>(msg->dma_addr));
      msg->set_fate(MessageFate::kConsumed);
    }
    while (auto msg = q.dequeue(100)) {
      got.push_back(static_cast<std::uint32_t>(msg->dma_addr));
      msg->set_fate(MessageFate::kConsumed);
    }
    std::vector<std::uint32_t> want(got.size());
    for (std::uint32_t i = 0; i < want.size(); ++i) want[i] = i;
    EXPECT_EQ(got, want) << "spec kind " << to_string(spec.kind);
  }
}

TEST(PifoConformance, OverflowAccountingClosesLedgerUnderPifo) {
  // Tail drops at a full queue under a custom program: every rejected
  // message gets fate kDropped, the queue's counter matches, and the
  // conservation window closes.
  {
    fault::ConservationChecker conservation;
    SchedSpec spec(SchedKind::kCustom);
    spec.rank_source = "queue.n = queue.n + 1\nrank = queue.n\n";
    SchedulerQueue q(spec, 4);
    for (std::uint32_t i = 0; i < 10; ++i) {
      q.try_enqueue(msg_for(Arrival{1, 10, 100}, i, i), i);
    }
    EXPECT_EQ(q.dropped(), 6u);
    EXPECT_EQ(conservation.delta().dropped, 6);
    while (auto msg = q.dequeue(20)) msg->set_fate(MessageFate::kConsumed);
    EXPECT_TRUE(conservation.verify()) << conservation.delta().to_string();
  }
  // kEvictLoosest with a rank program that makes every later arrival
  // tighter: each arrival evicts the loosest queued message (eviction
  // compares ranks, not slack), and the ledger still closes with
  // evictions counted as drops.
  {
    fault::ConservationChecker conservation;
    SchedSpec spec(SchedKind::kCustom);
    spec.rank_source = "rank = 1000 - seq\n";
    SchedulerQueue q(spec, 4, DropPolicy::kEvictLoosest);
    for (std::uint32_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(q.try_enqueue(msg_for(Arrival{1, 10, 100}, i, i), i));
    }
    EXPECT_EQ(q.dropped(), 6u);
    EXPECT_EQ(conservation.delta().dropped, 6);
    int drained = 0;
    while (auto msg = q.dequeue(20)) {
      msg->set_fate(MessageFate::kConsumed);
      ++drained;
    }
    EXPECT_EQ(drained, 4);
    EXPECT_EQ(q.vtime(), 994u);  // ranks 994..991; max dequeued is first
    EXPECT_TRUE(conservation.verify()) << conservation.delta().to_string();
  }
}

TEST(PifoConformance, DropsDoNotAdvanceVirtualFinishTimes) {
  // A message rejected at a full queue must not advance the rank
  // program's per-flow state (§ drop semantics): after two drops, the
  // next admitted message ranks exactly one quantum past the last
  // admitted one.
  SchedSpec spec(SchedKind::kCustom);
  spec.rank_source =
      "flow.fin = max(flow.fin, vtime) + bytes\n"
      "rank = flow.fin\n";
  SchedulerQueue q(spec, 2);
  auto mk = [](std::uint32_t id) { return msg_for(Arrival{1, 10, 100}, id, 0); };
  auto probe = mk(0);
  const std::uint64_t bytes = probe->wire_size();
  EXPECT_TRUE(q.try_enqueue(std::move(probe), 0));     // rank = bytes
  EXPECT_TRUE(q.try_enqueue(mk(1), 0));                // rank = 2*bytes
  EXPECT_FALSE(q.try_enqueue(mk(2), 0));               // dropped
  EXPECT_FALSE(q.try_enqueue(mk(3), 0));               // dropped
  EXPECT_EQ(q.dropped(), 2u);
  q.dequeue(1)->set_fate(MessageFate::kConsumed);
  q.dequeue(1)->set_fate(MessageFate::kConsumed);
  EXPECT_EQ(q.vtime(), 2 * bytes);
  EXPECT_TRUE(q.try_enqueue(mk(4), 2));
  EXPECT_EQ(q.head_rank(), 3 * bytes);  // not 5*bytes: drops committed nothing
  q.dequeue(3)->set_fate(MessageFate::kConsumed);
}

TEST(PifoConformance, LegacyKindsKeepMetricNamespace) {
  // The sched.pifo.* family exists exactly when the queue evaluates its
  // rank program per message: `sched slack` (rank = slack) and `sched
  // fifo` (rank = 0) take the fast paths and publish none of it.
  for (const SchedKind kind : {SchedKind::kSlack, SchedKind::kFifo}) {
    telemetry::MetricsRegistry m;
    SchedulerQueue q(kind, 8);
    q.register_metrics(m, "q");
    const auto snap = m.snapshot();
    EXPECT_TRUE(snap.has("q.enqueued"));
    EXPECT_FALSE(snap.has("q.pifo.rank_evals")) << to_string(kind);
    EXPECT_FALSE(snap.has("q.pifo.vtime")) << to_string(kind);
    EXPECT_FALSE(snap.has("q.pifo.flows")) << to_string(kind);
  }
  for (const SchedKind kind :
       {SchedKind::kWfq, SchedKind::kStfq, SchedKind::kEdf, SchedKind::kPrio}) {
    telemetry::MetricsRegistry m;
    SchedulerQueue q(kind, 8);
    q.register_metrics(m, "q");
    const auto snap = m.snapshot();
    EXPECT_TRUE(snap.has("q.pifo.rank_evals")) << to_string(kind);
    EXPECT_TRUE(snap.has("q.pifo.vtime")) << to_string(kind);
    EXPECT_TRUE(snap.has("q.pifo.flows")) << to_string(kind);
  }
  // The rule follows the compiled program, not the kind's name.
  for (const char* source : {"rank = slack\n", "rank = 7\n"}) {
    SchedSpec spec(SchedKind::kCustom);
    spec.rank_source = source;
    telemetry::MetricsRegistry m;
    SchedulerQueue q(spec, 8);
    q.register_metrics(m, "q");
    EXPECT_FALSE(m.snapshot().has("q.pifo.rank_evals")) << source;
  }
}

// --- Cross-kernel determinism: the same scenario must produce identical
// --- results (modulo kernel.* bookkeeping) under both kernels.

scenario::Scenario two_tenant_scenario() {
  scenario::Scenario s;
  s.name = "sched-conformance";
  s.eth_ports = 2;
  s.engine_queue_capacity = 16;  // small enough to exercise admission
  s.budget_cycles = 20000;
  scenario::WorkloadSpec heavy;
  heavy.name = "heavy";
  heavy.port = 0;
  heavy.tenant = 1;
  heavy.pattern = workload::ArrivalPattern::kConstantRate;
  heavy.mean_gap_cycles = 60.0;
  heavy.max_frames = 120;
  heavy.frame_bytes = 256;
  heavy.flows = 4;
  scenario::WorkloadSpec light;
  light.name = "light";
  light.port = 1;
  light.tenant = 2;
  light.pattern = workload::ArrivalPattern::kConstantRate;
  light.mean_gap_cycles = 120.0;
  light.max_frames = 60;
  light.frame_bytes = 128;
  light.flows = 2;
  s.workloads = {heavy, light};
  return s;
}

void expect_kernels_agree(const scenario::Scenario& s) {
  ASSERT_TRUE(s.feasible());
  const SimMode modes[] = {SimMode::kStrictTick, SimMode::kEventDriven};
  std::vector<proptest::RunResult> runs;
  for (const SimMode mode : modes) runs.push_back(proptest::run_scenario(s, mode));
  for (const auto& r : runs) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(r.mode)));
    EXPECT_TRUE(r.conserved) << r.conservation.to_string();
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_EQ(r.order_violations, 0u);
    EXPECT_GT(r.outcome.generated, 0u);
  }
  const scenario::Outcome& dense = runs[0].outcome;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("dense vs mode " + std::to_string(i));
    const scenario::Outcome& other = runs[i].outcome;
    EXPECT_EQ(dense.final_cycle, other.final_cycle);
    EXPECT_EQ(dense.generated, other.generated);
    EXPECT_EQ(dense.delivered, other.delivered);
    EXPECT_EQ(dense.tx_packets, other.tx_packets);
    EXPECT_EQ(dense.flits_routed, other.flits_routed);
    const auto diff = dense.snapshot.diff_names(
        other.snapshot,
        [](const std::string& name) { return name.rfind("kernel.", 0) == 0; });
    EXPECT_TRUE(diff.empty())
        << diff.size() << " metric(s) diverge, first: " << diff.front();
  }
}

TEST(PifoConformance, WfqIsKernelIndependent) {
  scenario::Scenario s = two_tenant_scenario();
  s.sched_policy = SchedSpec(SchedKind::kWfq);
  s.sched_policy.set_weight(1, 4);
  s.sched_policy.set_weight(2, 1);
  expect_kernels_agree(s);
}

TEST(PifoConformance, CustomRankProgramIsKernelIndependent) {
  scenario::Scenario s = two_tenant_scenario();
  s.sched_policy = SchedSpec(SchedKind::kCustom);
  s.sched_policy.rank_source =
      "flow.fin = max(flow.fin, vtime) + bytes + tenant * 3\n"
      "rank = flow.fin\n";
  expect_kernels_agree(s);
}

}  // namespace
}  // namespace panic::engines
