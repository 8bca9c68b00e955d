// Performance isolation with the logical scheduler (§3.1.3): an
// interactive tenant shares the NIC with a bulk tenant.  Run with FIFO
// scheduling to see the isolation anomaly, then with slack scheduling to
// see PANIC fix it.
//
//   $ ./build/examples/multi_tenant_isolation            # slack (default)
//   $ ./build/examples/multi_tenant_isolation policy=fifo
//
// The workloads live in multi_tenant_isolation.scenario; the policy=fifo
// switch just flips the loaded scenario's `sched` line.
#include <cstdio>

#include "common/cli.h"
#include "scenario/runner.h"

using namespace panic;

int main(int argc, char** argv) {
  cli::ArgParser args("multi_tenant_isolation",
                      "slack vs FIFO isolation under shared DMA");
  args.parse(argc, argv);
  const bool fifo = args.config().get_string("policy", "slack") == "fifo";

  std::string error;
  auto s = scenario::Scenario::load(
      PANIC_SCENARIO_DIR "/multi_tenant_isolation.scenario", &error);
  if (!s.has_value()) {
    std::fprintf(stderr, "cannot load multi_tenant_isolation.scenario: %s\n",
                 error.c_str());
    return 1;
  }
  if (fifo) s->sched_policy = engines::SchedPolicy::kFifo;

  scenario::RunOptions opts;
  opts.mode = args.sim_mode();
  scenario::ScenarioRun run(*s, opts);
  run.run_all();

  const auto snap = run.sim().snapshot();
  const auto& t1 = snap.at("engine.dma.host_latency.tenant.1");
  const auto& t2 = snap.at("engine.dma.host_latency.tenant.2");
  std::printf("--- scheduling policy: %s ---\n", fifo ? "FIFO" : "slack");
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
  std::printf(
      "\n(1 cycle = 2 ns.  Compare both policies: slack keeps the\n"
      "interactive tenant's p99 near the unloaded DMA latency; FIFO\n"
      "queues it behind every in-flight bulk burst.)\n");
  return 0;
}
