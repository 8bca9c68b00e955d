// The scenario generator: one seed -> one feasible Scenario.
//
// Coverage goals, in rough priority order:
//   * both kernel modes exercised on meshes of several sizes and engine
//     mixes (the differential oracle's configuration sweep),
//   * both scheduling policies, both drop policies, and queue capacities
//     small enough to force drops (the legal-drop-point invariant),
//   * chains beyond port->RMT->DMA: KVS turnaround traffic (cache-hit
//     replies exit an Ethernet port) and all-WAN KVS (IPSec on both
//     directions),
//   * deterministic faults from the existing grammar — aux-engine deaths
//     that heal through the equivalence group, stalls, degrades,
//     corruption, flaky links and small credit leaks.
//
// Constraints the generator enforces by construction (and the minimizer
// preserves via Scenario::feasible()):
//   * the engine set fits the mesh,
//   * every workload has a distinct tenant (per-tenant FIFO is only a
//     sound oracle when one tenant == one flow == one path),
//   * traces are finite (max_frames > 0) so runs terminate and shrink,
//   * kill faults target aux engines only, and only when a second aux
//     exists to heal through; credit leaks stay below the router buffer
//     depth so links degrade instead of wedging.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "scenario/scenario.h"

namespace panic::proptest {

/// Draws the scenario for `seed`.  `budget_cycles` = 0 lets the generator
/// pick (20k-100k); non-zero pins it (the CLI's --budget-cycles).
scenario::Scenario generate_scenario(std::uint64_t seed,
                                     Cycles budget_cycles = 0);

/// Draws a scenario whose scheduler runs a RANDOM custom rank program
/// (`sched pifo rank=<<END`), built from per-tenant-monotone families —
/// virtual-finish-time accumulators, created-linear deadlines and
/// now-linear offsets — so the per-tenant egress ordering oracle stays
/// sound while the PIFO program path (compiler, interpreter, state
/// commit, shadow audit) gets arbitrary-program coverage.  The base
/// scenario is generate_scenario(seed); only the sched spec is replaced.
scenario::Scenario generate_rank_scenario(std::uint64_t seed,
                                          Cycles budget_cycles = 0);

/// Draws a chaos-mode scenario: an overlapping fault storm (aux-engine
/// kills with revive/spare recoveries, plus stall/degrade/corrupt/flaky
/// chaff) over traffic whose chains route through the aux equivalence
/// group, so every kill is load-bearing.  Plans are recoverable by
/// construction (oracles.h plan_recoverable) and the budget covers the
/// full workload, the last recovery, and a drain window — so the
/// convergence oracle applies to every storm: all messages reach a
/// terminal fate and the ledger closes, in both kernels.  Half the
/// storms run `on_no_route backpressure` to exercise degraded-mode
/// parking and shedding.
scenario::Scenario generate_chaos_scenario(std::uint64_t seed);

}  // namespace panic::proptest
