// Performance isolation with the logical scheduler (§3.1.3): an
// interactive tenant shares the NIC with a bulk tenant.  The example runs
// the same workload twice — FIFO scheduling first, to show the isolation
// anomaly, then slack scheduling, to show PANIC fix it — and prints one
// section per policy, since the comparison is the point.
//
//   $ ./build/examples/multi_tenant_isolation
//
// The workloads live in multi_tenant_isolation.scenario; the FIFO run
// just flips the loaded scenario's `sched` line.
#include <cstdio>

#include "common/cli.h"
#include "scenario/runner.h"

using namespace panic;

namespace {

void run_policy(const scenario::Scenario& loaded, engines::SchedKind kind,
                SimMode mode) {
  scenario::Scenario s = loaded;
  s.sched_policy = kind;
  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(s, opts);
  run.run_all();

  const auto snap = run.sim().snapshot();
  const auto& t1 = snap.at("engine.dma.host_latency.tenant.1");
  const auto& t2 = snap.at("engine.dma.host_latency.tenant.2");
  std::printf("--- scheduling policy: %s ---\n",
              kind == engines::SchedKind::kFifo ? "FIFO" : "slack");
  std::printf("interactive tenant (n=%llu): p50=%llu p99=%llu max=%llu cyc\n",
              static_cast<unsigned long long>(t1.count),
              static_cast<unsigned long long>(t1.p50),
              static_cast<unsigned long long>(t1.p99),
              static_cast<unsigned long long>(t1.max));
  std::printf("bulk tenant        (n=%llu): p50=%llu p99=%llu max=%llu cyc\n",
              static_cast<unsigned long long>(t2.count),
              static_cast<unsigned long long>(t2.p50),
              static_cast<unsigned long long>(t2.p99),
              static_cast<unsigned long long>(t2.max));
  std::printf("DMA queue: max depth %llu, drops %llu\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.dma.queue.max_depth")),
              static_cast<unsigned long long>(
                  snap.counter("engine.dma.queue.dropped")));
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("multi_tenant_isolation",
                      "slack vs FIFO isolation under shared DMA");
  args.parse(argc, argv);

  std::string error;
  auto s = scenario::Scenario::load(
      PANIC_SCENARIO_DIR "/multi_tenant_isolation.scenario", &error);
  if (!s.has_value()) {
    std::fprintf(stderr, "cannot load multi_tenant_isolation.scenario: %s\n",
                 error.c_str());
    return 1;
  }

  run_policy(*s, engines::SchedKind::kFifo, args.sim_mode());
  std::printf("\n");
  run_policy(*s, engines::SchedKind::kSlack, args.sim_mode());
  std::printf(
      "\n(1 cycle = 2 ns.  Slack keeps the interactive tenant's p99 near\n"
      "the unloaded DMA latency; FIFO queues it behind every in-flight\n"
      "bulk burst.)\n");
  return 0;
}
