#include "proptest/generator.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace panic::proptest {

using scenario::Scenario;
using scenario::WorkloadSpec;

namespace {

/// An engine present in every topology (a safe stall/degrade/corrupt
/// target).
const char* fixed_engine(Rng& rng) {
  const auto i = rng.uniform_int(0, core::kFixedEngines.size() - 1);
  return core::kFixedEngines[i].name;
}

/// The smallest mesh side that fits the fixed engines and `s`'s ports,
/// RMT and aux engines.
int min_mesh_k(const Scenario& s) {
  const int need = static_cast<int>(core::kFixedEngines.size()) +
                   s.eth_ports + s.rmt_engines + s.aux_engines;
  int k = 2;
  while (k * k < need) ++k;
  return k;
}

std::uint64_t pick(Rng& rng, std::initializer_list<std::uint64_t> choices) {
  const auto i = rng.uniform_int(0, choices.size() - 1);
  return *(choices.begin() + static_cast<std::ptrdiff_t>(i));
}

WorkloadSpec generate_workload(Rng& rng, int index, int eth_ports,
                               Cycles budget) {
  WorkloadSpec w;
  w.port = static_cast<int>(rng.uniform_int(0, eth_ports - 1));
  // Distinct tenant per workload: one tenant == one flow == one path, the
  // precondition of the per-tenant FIFO oracle.
  w.tenant = static_cast<std::uint16_t>(1 + index);
  const auto kind_draw = rng.uniform_int(0, 3);
  w.kind = kind_draw <= 1 ? WorkloadSpec::Kind::kUdp
           : kind_draw == 2 ? WorkloadSpec::Kind::kMinFrame
                            : WorkloadSpec::Kind::kKvs;
  const auto pattern_draw = rng.uniform_int(0, 2);
  w.pattern = pattern_draw == 0 ? workload::ArrivalPattern::kConstantRate
              : pattern_draw == 1 ? workload::ArrivalPattern::kPoisson
                                  : workload::ArrivalPattern::kOnOff;
  // Log-uniform gap in [20, 2000): sweeps from saturating to sparse.
  w.mean_gap_cycles = 20.0 * std::pow(100.0, rng.uniform01());
  w.on_cycles = rng.uniform_int(500, 4000);
  w.off_cycles = rng.uniform_int(1000, 16000);
  // Finite trace, but long enough that back-pressure and drops can build
  // up within the budget.
  const std::uint64_t rate_bound =
      static_cast<std::uint64_t>(static_cast<double>(budget) /
                                 w.mean_gap_cycles) + 2;
  w.max_frames = std::min<std::uint64_t>(rng.uniform_int(20, 300), rate_bound);
  w.frame_bytes = pick(rng, {64, 128, 256, 512, 1024, 1500});
  // Flow locality: small values make the RMT flow cache actually hit, so
  // the cache_differential oracle exercises the replay path, not just the
  // all-miss path.
  w.flows = static_cast<std::uint32_t>(pick(rng, {1, 4, 16, 1024}));
  w.dst_port = static_cast<std::uint16_t>(pick(rng, {9, 5353, 8080}));
  // All-or-nothing WAN so a tenant's replies take a single chain.
  w.wan_fraction =
      w.kind == WorkloadSpec::Kind::kKvs && rng.bernoulli(0.4) ? 1.0 : 0.0;
  w.seed = rng.next();
  return w;
}

void generate_faults(Rng& rng, Scenario& s) {
  fault::FaultPlan plan;
  plan.seed = rng.next();
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  const Cycle budget = s.budget_cycles;
  for (int i = 0; i < n; ++i) {
    // Fault cycles land in the first half of the run so effects (and any
    // healing) are observable before the budget expires.
    const Cycle at = rng.uniform_int(budget / 8, budget / 2);
    switch (rng.uniform_int(0, 5)) {
      case 0:
        // Death heals through the aux equivalence group; only kill when a
        // second aux exists to take over.
        if (s.aux_engines >= 2) {
          plan.kill("aux" + std::to_string(
                        rng.uniform_int(0, s.aux_engines - 1)), at);
          break;
        }
        [[fallthrough]];
      case 1:
        plan.stall(fixed_engine(rng), at,
                   rng.uniform_int(200, budget / 8 + 200));
        break;
      case 2:
        plan.degrade(fixed_engine(rng), at,
                     1.5 + rng.uniform01() * 6.5,
                     rng.bernoulli(0.5) ? rng.uniform_int(500, budget / 4)
                                        : 0);
        break;
      case 3:
        plan.corrupt(fixed_engine(rng), at,
                     0.01 + rng.uniform01() * 0.19,
                     rng.bernoulli(0.5) ? rng.uniform_int(500, budget / 4)
                                        : 0);
        break;
      case 4:
        plan.flaky_link(
            static_cast<int>(rng.uniform_int(
                0, static_cast<std::uint64_t>(s.mesh_k * s.mesh_k) - 1)),
            rng.bernoulli(0.5) ? -1 : static_cast<int>(rng.uniform_int(0, 4)),
            at, 0.05 + rng.uniform01() * 0.25, rng.uniform_int(1, 8),
            rng.bernoulli(0.5) ? rng.uniform_int(1000, budget / 2) : 0);
        break;
      case 5:
        // Leaks stay below the default router buffer depth (8 flits) so
        // the link degrades instead of wedging outright.
        plan.leak_credits(
            static_cast<int>(rng.uniform_int(
                0, static_cast<std::uint64_t>(s.mesh_k * s.mesh_k) - 1)),
            rng.bernoulli(0.5) ? -1 : static_cast<int>(rng.uniform_int(0, 4)),
            at, static_cast<std::uint32_t>(rng.uniform_int(1, 3)));
        break;
    }
  }
  s.faults = std::move(plan);
}

}  // namespace

Scenario generate_scenario(std::uint64_t seed, Cycles budget_cycles) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;

  s.budget_cycles =
      budget_cycles != 0 ? budget_cycles : rng.uniform_int(20000, 100000);

  // Engine mix first, then the smallest-to-largest mesh that fits it.
  s.eth_ports = static_cast<int>(rng.uniform_int(1, 2));
  s.rmt_engines = static_cast<int>(rng.uniform_int(1, 2));
  s.aux_engines = static_cast<int>(rng.uniform_int(0, 2));
  s.mesh_k = static_cast<int>(rng.uniform_int(min_mesh_k(s), 6));

  // Rank policy: the slack/fifo kinds keep most of the weight
  // (they carry the regression goldens), the programmable built-ins share
  // the rest.  Every built-in is per-tenant monotone — within one tenant
  // ranks never decrease — which is the precondition of the per-tenant
  // egress ordering oracle (one tenant == one flow == one path).
  switch (rng.uniform_int(0, 9)) {
    case 0: case 1: case 2: case 3: case 4:
      s.sched_policy = engines::SchedKind::kSlack;
      break;
    case 5: case 6:
      s.sched_policy = engines::SchedKind::kFifo;
      break;
    case 7:
      s.sched_policy = engines::SchedKind::kWfq;
      break;
    case 8:
      s.sched_policy = engines::SchedKind::kStfq;
      break;
    default:
      s.sched_policy = rng.bernoulli(0.5) ? engines::SchedKind::kEdf
                                          : engines::SchedKind::kPrio;
      break;
  }
  s.drop_policy = rng.bernoulli(0.5) ? engines::DropPolicy::kDropArrival
                                     : engines::DropPolicy::kEvictLoosest;
  // Small capacities force the legal drop point; large ones test lossless
  // buildup.
  s.engine_queue_capacity = pick(rng, {4, 8, 32, 256});
  s.rmt_input_queue = pick(rng, {8, 64, 512});
  s.dma_contention_mean = static_cast<double>(pick(rng, {0, 0, 50, 150}));
  s.default_slack = static_cast<std::uint32_t>(pick(rng, {100, 1000}));

  const int n_workloads = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < n_workloads; ++i) {
    s.workloads.push_back(
        generate_workload(rng, i, s.eth_ports, s.budget_cycles));
    s.tenant_slacks.emplace_back(
        s.workloads.back().tenant,
        static_cast<std::uint32_t>(pick(rng, {10, 100, 1000, 100000})));
  }
  if (s.sched_policy.kind == engines::SchedKind::kWfq) {
    // Skewed weights so WFQ actually reorders across tenants (absent
    // entries weigh 1, so only some tenants get one).
    for (const WorkloadSpec& w : s.workloads) {
      if (rng.bernoulli(0.75)) {
        s.sched_policy.set_weight(
            w.tenant, static_cast<std::uint32_t>(pick(rng, {1, 2, 4, 8})));
      }
    }
  }

  if (rng.bernoulli(0.5)) generate_faults(rng, s);
  // Degraded-mode admission gets occasional coverage outside chaos mode
  // too: with no kill in the plan the parking path is simply never taken,
  // and with an uncovered kill the parked messages count as live (the
  // conservation oracle still balances them).
  if (rng.bernoulli(0.25)) {
    s.on_no_route = fault::NoRoutePolicy::kBackpressure;
    s.no_route_depth = pick(rng, {4, 16, 64});
  }

  // Flow-cache knob: usually on (the default), sometimes off (exercising
  // the uncached path), sometimes a degenerate geometry — a single set or
  // way forces constant evictions, and the cache_differential oracle must
  // hold regardless.
  if (rng.bernoulli(0.2)) {
    s.rmt_cache_enabled = false;
  } else if (rng.bernoulli(0.4)) {
    s.rmt_cache_sets = static_cast<std::uint32_t>(pick(rng, {1, 2, 8, 64}));
    s.rmt_cache_ways = static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
  }

  // NoC routing: usually XY, sometimes west-first, so the dense-vs-event
  // differential covers its adaptive output choice under trains, faults
  // and backpressure.
  if (rng.bernoulli(0.25)) s.routing = noc::RoutingAlgo::kWestFirst;
  return s;
}

Scenario generate_rank_scenario(std::uint64_t seed, Cycles budget_cycles) {
  Scenario s = generate_scenario(seed, budget_cycles);
  // Independent stream: the base scenario stays whatever its seed draws,
  // the rank program is layered on top.
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);

  // Every emitted program is per-tenant MONOTONE: flow.* state is keyed
  // by tenant, so a tenant's ranks never decrease and the per-tenant
  // egress ordering oracle stays sound (messages of one tenant dequeue in
  // (rank, seq) = arrival order at every queue).
  const auto number = [&rng](std::initializer_list<std::uint64_t> c) {
    return std::to_string(pick(rng, c));
  };
  // A non-negative per-message term; constant within a tenant or
  // monotone in arrival, never decreasing an accumulator.
  const auto term = [&]() -> std::string {
    switch (rng.uniform_int(0, 4)) {
      case 0: return "(bytes * " + number({256, 512, 1024}) + ") / weight";
      case 1: return "bytes + " + number({0, 7, 64});
      case 2: return "slack / " + number({2, 8}) + " + 1";
      case 3: return "min(bytes, " + number({128, 600}) + ") + 1";
      default: return "max(bytes, " + number({64, 300}) + ")";
    }
  };

  std::string prog;
  switch (rng.uniform_int(0, 2)) {
    case 0:
      // Accumulator family: virtual-finish-time shape (the WFQ/STFQ
      // skeleton) with a randomized increment.
      prog += "flow.acc = max(flow.acc, vtime) + " + term() + "\n";
      prog += "rank = flow.acc\n";
      break;
    case 1:
      // Created-linear family: deadline shape — monotone in creation
      // time, offset by per-tenant constants.
      prog += "rank = created * " + number({1, 2, 4}) + " + slack / " +
              number({1, 2, 8}) + "\n";
      break;
    default:
      // Now-linear family: enqueue times never decrease within a tenant.
      prog += "rank = now + tenant * " + number({0, 3, 17}) + "\n";
      break;
  }
  if (rng.bernoulli(0.4)) {
    // Harmless extra statements: per-queue state and a ternary over a
    // per-tenant constant (adds the same amount to every rank of a
    // tenant, so monotonicity is untouched).
    prog += "queue.n = queue.n + 1\n";
    prog += "rank = rank + (tenant > " + number({0, 2}) + " ? " +
            number({1, 5}) + " : 0)\n";
  }
  s.sched_policy.kind = engines::SchedKind::kCustom;
  s.sched_policy.rank_source = prog;
  s.sched_policy.weights.clear();
  for (const WorkloadSpec& w : s.workloads) {
    if (rng.bernoulli(0.5)) {
      s.sched_policy.set_weight(
          w.tenant, static_cast<std::uint32_t>(pick(rng, {1, 2, 4, 8})));
    }
  }
  return s;
}

Scenario generate_chaos_scenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;

  // Topology: enough aux engines for overlapping kills plus a never-killed
  // standby.  Chains nominally route through aux0 (the program below), so
  // killing aux0 is always load-bearing.
  s.eth_ports = static_cast<int>(rng.uniform_int(1, 2));
  s.rmt_engines = static_cast<int>(rng.uniform_int(1, 2));
  s.aux_engines = static_cast<int>(rng.uniform_int(2, 4));
  s.mesh_k = static_cast<int>(rng.uniform_int(min_mesh_k(s), 6));

  // Half the storms run degraded-mode parking instead of fail-fast drops,
  // with a small enough depth that overflow shedding (fate kShed) happens
  // under a long dead window.
  if (rng.bernoulli(0.5)) {
    s.on_no_route = fault::NoRoutePolicy::kBackpressure;
    s.no_route_depth = pick(rng, {4, 16, 64});
  }

  // Workloads: udp/min only — kvs replies take tenant-specific egress
  // paths that a mid-storm re-steer would legitimately reorder, blinding
  // the per-tenant ordering oracle.  Every workload is finite and at
  // least one (always w0) sends to the offload port, so the aux chain
  // carries real traffic when the kills land.
  const std::uint16_t offload_port = 7777;
  const int n_workloads = static_cast<int>(rng.uniform_int(1, 3));
  Cycle active_end = 0;
  for (int i = 0; i < n_workloads; ++i) {
    WorkloadSpec w;
    w.port = static_cast<int>(rng.uniform_int(0, s.eth_ports - 1));
    w.tenant = static_cast<std::uint16_t>(1 + i);
    w.kind = rng.bernoulli(0.5) ? WorkloadSpec::Kind::kUdp
                                : WorkloadSpec::Kind::kMinFrame;
    w.pattern = rng.bernoulli(0.5) ? workload::ArrivalPattern::kConstantRate
                                   : workload::ArrivalPattern::kPoisson;
    w.mean_gap_cycles = 120.0 + rng.uniform01() * 280.0;
    w.max_frames = rng.uniform_int(40, 120);
    w.frame_bytes = pick(rng, {64, 256, 512});
    w.flows = static_cast<std::uint32_t>(pick(rng, {1, 4, 16, 1024}));
    w.dst_port = (i == 0 || rng.bernoulli(0.67)) ? offload_port
                                                 : static_cast<std::uint16_t>(9);
    w.seed = rng.next();
    active_end = std::max(
        active_end, static_cast<Cycle>(static_cast<double>(w.max_frames) *
                                       w.mean_gap_cycles));
    s.workloads.push_back(w);
  }

  s.program =
      "stage chaos_offload {\n"
      "  table chaos_port exact(l4.dport) {\n"
      "    7777 -> clear_chain, chain(aux0, dma);\n"
      "  }\n"
      "}\n";

  // The storm: every kill is later undone — by a revive of the same
  // engine or by activating the reserved standby — so the plan is
  // recoverable and the convergence oracle applies.  Kill windows overlap
  // freely; killing every killable aux at once empties the equivalence
  // group and exercises the no-route admission path.
  fault::FaultPlan plan;
  plan.seed = rng.next();
  const Cycle window_lo = active_end / 8 + 1;
  const Cycle window_hi = std::max<Cycle>(window_lo + 1, active_end * 3 / 4);
  const bool use_spares = rng.bernoulli(0.5);
  const int killable = use_spares ? s.aux_engines - 1 : s.aux_engines;
  const int n_kills = static_cast<int>(
      rng.uniform_int(1, static_cast<std::uint64_t>(killable)));
  const std::string standby = "aux" + std::to_string(s.aux_engines - 1);
  for (int k = 0; k < n_kills; ++k) {
    const std::string victim = "aux" + std::to_string(k);
    const Cycle kill_at = rng.uniform_int(window_lo, window_hi);
    const Cycle recover_at =
        kill_at + rng.uniform_int(500, std::max<Cycle>(501, active_end / 4));
    plan.kill(victim, kill_at);
    if (use_spares && rng.bernoulli(0.5)) {
      plan.spare(standby, victim, recover_at);
    } else {
      plan.revive(victim, recover_at, pick(rng, {0, 0, 200, 500}));
    }
  }

  // Chaff: transient non-capacity faults layered over the kills.  All
  // finite, so they never block convergence.
  const int n_chaff = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < n_chaff; ++i) {
    const Cycle at = rng.uniform_int(window_lo, window_hi);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        plan.stall(fixed_engine(rng), at, rng.uniform_int(200, 2000));
        break;
      case 1:
        plan.degrade(fixed_engine(rng), at,
                     1.5 + rng.uniform01() * 2.5, rng.uniform_int(500, 5000));
        break;
      case 2:
        plan.corrupt(fixed_engine(rng), at,
                     0.01 + rng.uniform01() * 0.1,
                     rng.uniform_int(500, 5000));
        break;
      case 3:
        plan.flaky_link(
            static_cast<int>(rng.uniform_int(
                0, static_cast<std::uint64_t>(s.mesh_k * s.mesh_k) - 1)),
            rng.bernoulli(0.5) ? -1 : static_cast<int>(rng.uniform_int(0, 4)),
            at, 0.05 + rng.uniform01() * 0.2, rng.uniform_int(1, 8),
            rng.uniform_int(1000, 8000));
        break;
    }
  }
  s.faults = std::move(plan);

  // Budget: 3x the expected workload end (Poisson-tail margin), plus the
  // last fault/recovery event, plus a drain window for parked and queued
  // work to reach terminal fates after the final recovery.
  Cycle last_event = 0;
  for (const fault::FaultSpec& f : s.faults.faults()) {
    last_event = std::max(last_event, f.at + f.duration + f.warmup);
  }
  s.budget_cycles = 3 * active_end + last_event + 60000;
  return s;
}

}  // namespace panic::proptest
