#include "proptest/minimizer.h"

#include <algorithm>
#include <exception>

namespace panic::proptest {

using scenario::Scenario;
using scenario::WorkloadSpec;

namespace {

/// Drops tenant_slacks entries whose tenant no longer has a workload.
void prune_slacks(Scenario& s) {
  s.tenant_slacks.erase(
      std::remove_if(s.tenant_slacks.begin(), s.tenant_slacks.end(),
                     [&](const auto& ts) {
                       for (const WorkloadSpec& w : s.workloads) {
                         if (w.tenant == ts.first) return false;
                       }
                       return true;
                     }),
      s.tenant_slacks.end());
}

}  // namespace

MinimizeResult minimize(const Scenario& failing, int max_tests) {
  MinimizeResult result;
  result.scenario = failing;
  result.violations = check_scenario(failing);
  ++result.tested;

  // Accepts `candidate` iff it is feasible, builds and still fails some
  // oracle.  Shrinking the engine mix or the mesh can drop an engine the
  // fault plan or the p4lite program names, and the NIC then refuses to
  // build.
  const auto try_reduce = [&](Scenario candidate) {
    if (result.tested >= max_tests) return false;
    if (!candidate.feasible(/*strict_finite=*/true)) return false;
    ++result.tested;
    std::vector<Violation> violations;
    try {
      violations = check_scenario(candidate);
    } catch (const std::exception&) {
      return false;
    }
    if (violations.empty()) return false;
    result.scenario = std::move(candidate);
    result.violations = std::move(violations);
    ++result.accepted;
    return true;
  };

  bool progress = true;
  while (progress && result.tested < max_tests) {
    progress = false;

    // 1. Remove whole workloads (largest single reduction).
    for (std::size_t i = 0; i < result.scenario.workloads.size();) {
      Scenario c = result.scenario;
      c.workloads.erase(c.workloads.begin() +
                        static_cast<std::ptrdiff_t>(i));
      prune_slacks(c);
      if (try_reduce(std::move(c))) {
        progress = true;  // index i now names the next workload
      } else {
        ++i;
      }
    }

    // 2. Remove fault specs, then the whole plan's seed sensitivity is
    // gone once the list is empty.
    for (std::size_t i = 0; i < result.scenario.faults.size();) {
      Scenario c = result.scenario;
      fault::FaultPlan pruned;
      pruned.seed = c.faults.seed;
      for (std::size_t j = 0; j < c.faults.faults().size(); ++j) {
        if (j != i) pruned.add(c.faults.faults()[j]);
      }
      c.faults = std::move(pruned);
      if (try_reduce(std::move(c))) {
        progress = true;
      } else {
        ++i;
      }
    }

    // 3. Shrink traces.  Fewer frames alone often loses the failure —
    // scheduling/ordering bugs need queue pressure, i.e. messages close
    // enough together to coexist in a queue — so each step tries, most
    // aggressive first: (a) jumping straight to a two-frame back-to-back
    // burst, (b) halving the trace while tightening the gap to keep the
    // pressure, (c) halving the trace alone.
    for (std::size_t i = 0; i < result.scenario.workloads.size(); ++i) {
      {
        const WorkloadSpec& w = result.scenario.workloads[i];
        if (w.max_frames > 2 || w.mean_gap_cycles > 1.0 ||
            w.pattern != workload::ArrivalPattern::kConstantRate) {
          Scenario c = result.scenario;
          c.workloads[i].max_frames = std::min<std::uint64_t>(
              2, c.workloads[i].max_frames);
          c.workloads[i].mean_gap_cycles = 1.0;
          c.workloads[i].pattern = workload::ArrivalPattern::kConstantRate;
          if (try_reduce(std::move(c))) progress = true;
        }
      }
      while (result.scenario.workloads[i].max_frames > 1) {
        Scenario dense = result.scenario;
        dense.workloads[i].max_frames = std::max<std::uint64_t>(
            1, dense.workloads[i].max_frames / 2);
        dense.workloads[i].mean_gap_cycles =
            std::max(1.0, dense.workloads[i].mean_gap_cycles / 2.0);
        if (try_reduce(std::move(dense))) {
          progress = true;
          continue;
        }
        Scenario c = result.scenario;
        c.workloads[i].max_frames = std::max<std::uint64_t>(
            1, c.workloads[i].max_frames / 2);
        if (!try_reduce(std::move(c))) break;
        progress = true;
      }
    }

    // 4. Halve the cycle budget (floor 2000 keeps room for traffic to
    // traverse the NIC at all).
    while (result.scenario.budget_cycles > 2000) {
      Scenario c = result.scenario;
      c.budget_cycles = std::max<Cycles>(2000, c.budget_cycles / 2);
      if (!try_reduce(std::move(c))) break;
      progress = true;
    }

    // 5. Shrink the engine mix and the mesh.
    while (result.scenario.aux_engines > 0) {
      Scenario c = result.scenario;
      --c.aux_engines;
      if (!try_reduce(std::move(c))) break;
      progress = true;
    }
    while (result.scenario.rmt_engines > 1) {
      Scenario c = result.scenario;
      --c.rmt_engines;
      if (!try_reduce(std::move(c))) break;
      progress = true;
    }
    {
      // Drop unused trailing Ethernet ports.
      int max_port = -1;
      for (const WorkloadSpec& w : result.scenario.workloads) {
        max_port = std::max(max_port, w.port);
      }
      while (result.scenario.eth_ports > std::max(1, max_port + 1)) {
        Scenario c = result.scenario;
        --c.eth_ports;
        if (!try_reduce(std::move(c))) break;
        progress = true;
      }
    }
    while (result.scenario.mesh_k > 2) {
      Scenario c = result.scenario;
      --c.mesh_k;
      if (!try_reduce(std::move(c))) break;
      progress = true;
    }

    // 6. Simplify knobs: drop DMA contention, shrink frames to minimum,
    // sparse constant arrivals (fewer Rng draws in the replay).
    if (result.scenario.dma_contention_mean != 0.0) {
      Scenario c = result.scenario;
      c.dma_contention_mean = 0.0;
      if (try_reduce(std::move(c))) progress = true;
    }
    for (std::size_t i = 0; i < result.scenario.workloads.size(); ++i) {
      if (result.scenario.workloads[i].frame_bytes > 64) {
        Scenario c = result.scenario;
        c.workloads[i].frame_bytes = 64;
        if (try_reduce(std::move(c))) progress = true;
      }
      if (result.scenario.workloads[i].pattern !=
          workload::ArrivalPattern::kConstantRate) {
        Scenario c = result.scenario;
        c.workloads[i].pattern = workload::ArrivalPattern::kConstantRate;
        if (try_reduce(std::move(c))) progress = true;
      }
    }
  }
  return result;
}

}  // namespace panic::proptest
