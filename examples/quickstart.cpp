// Quickstart: build a PANIC NIC, push a few packets through it, and look
// at where they went.
//
//   $ ./build/examples/quickstart
//
// The traffic lives in quickstart.scenario — three frames into Ethernet
// port 0 — and runs through the shared scenario runner, so the identical
// simulation is also one `panic_run examples/quickstart.scenario` away.
// This wrapper only adds the narrated statistics printout and the TX-sink
// commentary.
#include <cstdio>

#include "common/cli.h"
#include "net/packet.h"
#include "scenario/runner.h"

using namespace panic;

int main(int argc, char** argv) {
  cli::ArgParser args("quickstart", "three frames through a 4x4-mesh NIC");
  args.parse(argc, argv);

  std::string error;
  auto s = scenario::Scenario::load(PANIC_SCENARIO_DIR "/quickstart.scenario",
                                    &error);
  if (!s.has_value()) {
    std::fprintf(stderr, "cannot load quickstart.scenario: %s\n",
                 error.c_str());
    return 1;
  }

  scenario::RunOptions opts;
  opts.mode = args.sim_mode();
  // Opt-in per-message tracing: every RMT pass, NoC hop, queue event and
  // service window is recorded and exported for chrome://tracing.
  opts.trace_path = "quickstart.trace.json";
  scenario::ScenarioRun run(*s, opts);
  Simulator& sim = run.sim();

  // Watch transmitted frames (NIC-generated replies leave here).
  run.nic().eth_port(0).set_tx_sink([&](const Message& msg, Cycle now) {
    const auto parsed = parse_frame(msg.data);
    std::printf("[%6.0f ns] TX frame, %zu bytes%s\n",
                sim.clock().cycles_to_ns(now), msg.data.size(),
                parsed && parsed->kvs ? " (KVS reply)" : "");
  });

  run.run_all();

  // Every component published its counters into the simulator's metrics
  // registry; one snapshot() call reads them all by hierarchical name.
  const auto snap = sim.snapshot();
  std::printf("\n--- NIC statistics after %.0f ns ---\n", sim.now_ns());
  std::printf("RMT pipeline passes:        %.0f\n",
              snap.value("nic.rmt_passes"));
  std::printf("packets delivered to host:  %llu\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.dma.packets_to_host")));
  std::printf("KVS cache: %llu hit / %llu miss / %llu set\n",
              static_cast<unsigned long long>(snap.counter("engine.kvs.hits")),
              static_cast<unsigned long long>(
                  snap.counter("engine.kvs.misses")),
              static_cast<unsigned long long>(snap.counter("engine.kvs.sets")));
  std::printf("RDMA replies generated:     %llu\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.rdma.replies_generated")));
  std::printf("interrupts: %llu delivered, %llu coalesced\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.pcie.interrupts_delivered")),
              static_cast<unsigned long long>(
                  snap.counter("engine.pcie.interrupts_coalesced")));
  const auto& lat = snap.at("engine.dma.host_latency");
  std::printf("host-delivery latency:      n=%llu mean=%.1f p50=%llu "
              "p99=%llu max=%llu cycles\n",
              static_cast<unsigned long long>(lat.count), lat.mean,
              static_cast<unsigned long long>(lat.p50),
              static_cast<unsigned long long>(lat.p99),
              static_cast<unsigned long long>(lat.max));

  // The timeline was written by run_all(): open chrome://tracing (or
  // ui.perfetto.dev) and load quickstart.trace.json to see each packet hop
  // engine to engine.
  std::printf("wrote quickstart.trace.json (%zu events)\n",
              sim.telemetry().tracer().events().size());
  return 0;
}
