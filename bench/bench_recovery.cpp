// Recovery-time objective gatekeeper: kill mid-run, revive, and gate the
// exit code on how fast the NIC comes back.
//
// The design point lives in bench_recovery.scenario: all traffic chains
// through aux0 (100-cycle offload), aux0 dies and heals through the
// equivalence group to aux1, then aux1 dies too — the group is empty and
// degraded-mode backpressure parks arrivals — then aux0 revives with a
// warmup window and the parked backlog drains.
//
// Acceptance gates (exit status):
//   * RTO: delivered rate back within kSteadyFraction of the pre-fault
//     steady rate inside kRtoWindow cycles of the steering rejoin;
//   * conservation: the ledger closes and nothing is left live at the
//     end (every parked message drained or was attributed).
// That the scenario's result JSON, fault.recovery.* metrics included, is
// the same under both kernels is checked by the KernelDiff.* ctests.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/report.h"
#include "common/cli.h"
#include "fault/invariants.h"
#include "scenario/runner.h"

using namespace panic;
using namespace panic::analysis;

namespace {

constexpr double kSteadyFraction = 0.95;  // post-revival rate vs pre-fault
constexpr Cycles kRtoWindow = 20000;      // cycles after the steering rejoin
constexpr Cycles kSampleWindow = 2000;

struct RtoResult {
  double steady_rate = 0.0;      // delivered/cycle before the first kill
  double recovered_rate = 0.0;   // first post-revival window at/above gate
  Cycle recovered_after = 0;     // cycles from steering rejoin to that window
  bool rto_met = false;
  bool conserved = false;
  bool drained = false;  // nothing live at end of budget
  telemetry::MetricsSnapshot snapshot;
};

RtoResult measure(const scenario::Scenario& s, SimMode mode) {
  // The plan tells us where the incident windows are — the bench never
  // hard-codes cycles the scenario owns.
  Cycle first_kill = 0, rejoin = 0;
  for (const fault::FaultSpec& f : s.faults.faults()) {
    if (f.kind == fault::FaultKind::kEngineDeath &&
        (first_kill == 0 || f.at < first_kill)) {
      first_kill = f.at;
    }
    if (f.kind == fault::FaultKind::kEngineRevive) {
      rejoin = std::max(rejoin, f.at + f.warmup);
    }
  }
  if (first_kill == 0 || rejoin == 0) {
    std::fprintf(stderr, "scenario has no kill/revive pair to gate on\n");
    std::exit(EXIT_FAILURE);
  }

  fault::ConservationChecker ledger;
  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(s, opts);
  auto& metrics = run.sim().telemetry().metrics();
  const auto& delivered = metrics.counter("engine.dma.packets_to_host");

  RtoResult r;
  // Pre-fault steady rate over the back two thirds of the clean window
  // (the front third is pipe-fill warmup).
  const Cycle r0_start = first_kill / 3;
  run.sim().run(r0_start);
  const std::uint64_t d0 = delivered;
  run.sim().run(first_kill - r0_start);
  const std::uint64_t d1 = delivered;
  r.steady_rate = static_cast<double>(d1 - d0) /
                  static_cast<double>(first_kill - r0_start);

  // Through the storm to the steering rejoin, then sample windows until
  // the delivered rate is back at the objective.
  run.sim().run(rejoin - first_kill);
  Cycle elapsed = 0;
  std::uint64_t prev = delivered;
  while (elapsed < kRtoWindow + 8 * kSampleWindow) {
    run.sim().run(kSampleWindow);
    elapsed += kSampleWindow;
    const std::uint64_t cur = delivered;
    const double rate = static_cast<double>(cur - prev) /
                        static_cast<double>(kSampleWindow);
    prev = cur;
    if (rate >= kSteadyFraction * r.steady_rate) {
      r.recovered_rate = rate;
      r.recovered_after = elapsed;
      r.rto_met = elapsed <= kRtoWindow;
      break;
    }
  }

  // Drain the rest of the budget so the ledger can close.
  const Cycle spent = rejoin + elapsed;
  if (s.budget_cycles > spent) run.sim().run(s.budget_cycles - spent);
  const auto delta = ledger.delta();
  r.conserved = ledger.verify_or_log();
  r.drained = delta.live == 0;
  r.snapshot = run.sim().snapshot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_recovery",
                      "kill -> revive recovery-time objective gate");
  args.parse(argc, argv);

  std::string error;
  const auto loaded = scenario::Scenario::load(
      PANIC_SCENARIO_DIR "/bench_recovery.scenario", &error);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "cannot load bench_recovery.scenario: %s\n",
                 error.c_str());
    return 1;
  }
  // Round-trip: the design point must stay expressible as scenario text.
  const auto reparsed = scenario::Scenario::parse(loaded->to_string(), &error);
  if (!reparsed.has_value() ||
      reparsed->to_string() != loaded->to_string()) {
    std::fprintf(stderr, "scenario round-trip failed: %s\n", error.c_str());
    return 1;
  }
  const scenario::Scenario& s = *reparsed;

  std::printf("PANIC reproduction — recovery lifecycle objective\n");
  std::printf("aux0 dies (heals to aux1), aux1 dies (group empty, "
              "backpressure parks), aux0 revives; gate: rate back to "
              ">= %.0f%% of steady within %llu cycles of the rejoin.\n\n",
              kSteadyFraction * 100,
              static_cast<unsigned long long>(kRtoWindow));

  const RtoResult r = measure(s, args.sim_mode());
  const auto& snap = r.snapshot;

  Report report({"Metric", "Value"});
  report.add_row({"steady rate (pkt/cyc)", strf("%.5f", r.steady_rate)});
  report.add_row({"recovered rate", strf("%.5f", r.recovered_rate)});
  report.add_row({"rejoin -> steady (cyc)",
                  r.recovered_rate > 0.0
                      ? strf("%llu",
                             (unsigned long long)r.recovered_after)
                      : std::string("never")});
  report.add_row({"incidents",
                  strf("%llu", (unsigned long long)snap.counter(
                                   "fault.recovery.incidents"))});
  report.add_row({"restored",
                  strf("%llu", (unsigned long long)snap.counter(
                                   "fault.recovery.restored"))});
  report.add_row({"degraded served",
                  strf("%llu", (unsigned long long)snap.counter(
                                   "fault.recovery.degraded_served"))});
  report.add_row({"parked (RMT+engines)",
                  strf("%.0f", snap.sum("", ".no_route_parked"))});
  report.add_row({"shed", strf("%.0f", snap.sum("", ".no_route_shed"))});
  report.print("Recovery lifecycle (bench_recovery.scenario)");

  bool ok = true;
  if (!r.rto_met) {
    std::fprintf(stderr,
                 "FAIL: rate not back to %.0f%% of steady within %llu "
                 "cycles of the rejoin\n",
                 kSteadyFraction * 100,
                 static_cast<unsigned long long>(kRtoWindow));
    ok = false;
  }
  if (!r.conserved || !r.drained) {
    std::fprintf(stderr,
                 "FAIL: ledger did not close after recovery "
                 "(conserved=%d drained=%d)\n",
                 r.conserved, r.drained);
    ok = false;
  }

  std::printf("\nShape check: the empty-group window parks (not drops) "
              "arrivals, the revive drains the backlog within the RTO, "
              "and both kernels agree bit-for-bit.\n");
  return ok ? 0 : 1;
}
