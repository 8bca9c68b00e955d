// Builds and runs one Scenario under one kernel: the shared execution
// engine behind `panic_run`, the converted examples/benches, and the fuzz
// harness's per-mode legs.  Construction builds the NIC and traffic
// sources and schedules every `inject` / `host_tx` line through the event
// queue (events are cycle-exact in both kernels, so a scenario is
// bit-identical however it is executed).  Callers may attach TX sinks or
// probes between construction and run_all().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_mode.h"
#include "common/units.h"
#include "core/panic_nic.h"
#include "net/addr.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "workload/traffic_gen.h"

namespace panic::scenario {

/// The address a workload line without `src` sends from:
/// 10.<tenant & 255>.<tenant >> 8>.2, one per tenant (10.<tenant>.0.2
/// below 256).
Ipv4Addr default_client_addr(std::uint16_t tenant);

struct RunOptions {
  /// Kernel to execute under (panic_run's --mode).
  SimMode mode = SimMode::kEventDriven;
  /// Non-empty: enable the per-message tracer and write chrome://tracing
  /// JSON here after the run.
  std::string trace_path;
};

/// End-of-run statistics; `snapshot` holds every registered metric.
struct Outcome {
  Cycle final_cycle = 0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;  ///< kernel-dependent by design
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;   ///< DMA packets to host
  std::uint64_t tx_packets = 0;  ///< frames out of Ethernet ports
  std::uint64_t flits_routed = 0;
  std::uint64_t rmt_passes = 0;
  telemetry::MetricsSnapshot snapshot;
};

class ScenarioRun {
 public:
  /// Builds simulator + NIC + sources and schedules all timed frames.
  /// Throws std::runtime_error on an unbuildable scenario (infeasible
  /// topology, program compile error, fault plan naming an unknown
  /// target).
  explicit ScenarioRun(const Scenario& s, const RunOptions& opts = {});

  Simulator& sim() { return sim_; }
  core::PanicNic& nic() { return *nic_; }
  const Scenario& scenario() const { return scenario_; }
  SimMode mode() const { return sim_.mode(); }

  /// The source built from the workload line named `name` ("w<index>"
  /// when unnamed); nullptr if absent.
  workload::TrafficSource* source(std::string_view name);

  /// Runs the warmup window (no-op when `warmup` is 0).
  void run_warmup();
  /// Runs the measured window (`budget` cycles).
  void run_measure();
  /// warmup + measure, then writes the trace file if requested.
  void run_all();

  /// Statistics at the current cycle (normally read after run_all()).
  Outcome outcome() const;

  /// Result JSON for this run.  Everything except the single "runner"
  /// line is kernel-independent, so `grep -v '"runner"'` of two modes'
  /// outputs must compare equal — the CI diff gate.
  std::string result_json() const;

  /// Writes result_json() to `path`; returns false on I/O failure.
  bool write_result_json(const std::string& path) const;

 private:
  void build_sources();
  void schedule_frames();
  void write_trace();

  Scenario scenario_;
  RunOptions opts_;
  Simulator sim_;
  std::unique_ptr<core::PanicNic> nic_;
  std::vector<std::unique_ptr<workload::TrafficSource>> sources_;
  bool warmed_up_ = false;
};

}  // namespace panic::scenario
