// Recovery lifecycle: engines coming *back*.  Unit tests for the steering
// directory's alive path, the RecoveryTracker's incident bookkeeping and
// the host driver's seeded backoff schedule; end-to-end revive / spare /
// degraded-backpressure scenarios on a live PANIC NIC; and cross-kernel
// checks that the whole lifecycle — kill, park, revive, drain — is
// bit-identical under the dense and event-driven kernels.
#include "fault/recovery.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/panic_nic.h"
#include "engines/host_driver.h"
#include "fault/fault_plan.h"
#include "fault/invariants.h"
#include "fault/steering.h"
#include "net/packet.h"
#include "proptest/oracles.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace panic::fault {
namespace {

const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);
constexpr std::uint16_t kAuxPort = 7777;  // routed through aux[0]

/// 5x5 mesh with `aux_engines` interchangeable delay engines; packets to
/// kAuxPort chain through aux[0] then the DMA engine.
core::PanicConfig aux_chain_config(int aux_engines) {
  core::PanicConfig cfg;
  cfg.mesh.k = 5;
  cfg.aux_engines = aux_engines;
  cfg.aux_fixed_cycles = 50;
  cfg.program = R"(
    stage aux_select {
      table aux_port exact(l4.dport) {
        7777 -> clear_chain, chain(aux0, dma);
      }
    }
  )";
  return cfg;
}

void inject_stream(Simulator& sim, core::PanicNic& nic, int frames,
                   Cycle gap, std::uint16_t dport = kAuxPort) {
  for (int i = 0; i < frames; ++i) {
    sim.schedule_at(1 + static_cast<Cycle>(i) * gap, [&sim, &nic, i, dport] {
      deliver_frame(nic.eth_port(0),
                    frames::min_udp(kClient, kServer,
                                    static_cast<std::uint16_t>(40000 + i),
                                    dport),
                    sim.now());
    });
  }
}

// --- SteeringDirectory: the alive path. ---

TEST(Recovery, MarkAliveRestoresRouteAndBumpsGeneration) {
  SteeringDirectory dir;
  const EngineId a{10}, b{11};
  dir.add_equivalence_group({a, b});

  dir.mark_dead(a);
  const std::uint64_t gen_dead = dir.generation();
  EXPECT_TRUE(dir.is_dead(a));
  EXPECT_EQ(dir.resolve(a), b);

  dir.mark_alive(a);
  EXPECT_FALSE(dir.is_dead(a));
  EXPECT_EQ(dir.resolve(a), a);  // new chains steer straight back
  EXPECT_GT(dir.generation(), gen_dead);  // caches must flush

  // Idempotent: reviving a live engine is a no-op, generation included.
  const std::uint64_t gen_alive = dir.generation();
  dir.mark_alive(a);
  EXPECT_EQ(dir.generation(), gen_alive);
}

TEST(Recovery, SpareFallbackResolvesWhenGroupIsEmpty) {
  SteeringDirectory dir;
  const EngineId a{10}, b{11}, spare{12};
  dir.add_equivalence_group({a, b});
  dir.mark_dead(a);
  dir.mark_dead(b);
  EXPECT_EQ(dir.resolve(a), std::nullopt);  // group exhausted

  // Spare activation: fallback takes precedence over group resolution.
  dir.set_fallback(a, spare);
  EXPECT_EQ(dir.resolve(a), spare);
  // The dead engine stays dead — only the fallback routes around it.
  EXPECT_TRUE(dir.is_dead(a));
}

// --- RecoveryTracker bookkeeping. ---

TEST(Recovery, TrackerOpensAndClosesIncidents) {
  Simulator sim;
  RecoveryConfig cfg;
  cfg.period = 10;
  RecoveryTracker tracker(cfg);
  std::uint64_t delivered = 0;
  tracker.set_throughput_probe([&] { return delivered; });
  sim.add(&tracker);

  // Steady traffic, then an incident at 100 and restoration at 300.
  sim.schedule_at(100, [&] { tracker.on_incident("aux0", sim.now()); });
  sim.schedule_at(300, [&] { tracker.on_restored("aux0", sim.now()); });
  for (Cycle c = 0; c < 500; c += 5) {
    sim.schedule_at(c + 1, [&] { ++delivered; });
  }
  sim.run(600);

  EXPECT_EQ(tracker.incidents(), 1u);
  EXPECT_EQ(tracker.restored_count(), 1u);
  EXPECT_EQ(tracker.open_count(), 0u);
}

TEST(Recovery, TrackerIgnoresDuplicateOpensAndUnmatchedRestores) {
  Simulator sim;
  RecoveryTracker tracker;
  std::uint64_t delivered = 0;
  tracker.set_throughput_probe([&] { return delivered; });
  sim.add(&tracker);

  tracker.on_incident("aux0", 10);
  tracker.on_incident("aux0", 20);   // duplicate while open: ignored
  tracker.on_restored("other", 30);  // no such incident: ignored
  EXPECT_EQ(tracker.incidents(), 1u);
  EXPECT_EQ(tracker.open_count(), 1u);
  EXPECT_EQ(tracker.restored_count(), 0u);

  tracker.on_restored("aux0", 40);
  tracker.on_incident("aux0", 50);  // a *new* incident may reopen
  EXPECT_EQ(tracker.incidents(), 2u);
  EXPECT_EQ(tracker.restored_count(), 1u);
}

// --- Host-driver backoff: pure, seeded, exponential. ---

TEST(Recovery, BackoffDelayIsExponentialAndCapped) {
  engines::HostDriverConfig cfg;
  cfg.tx_timeout = 1000;
  cfg.max_backoff = 8000;
  cfg.jitter = 0.0;  // exact schedule
  EXPECT_EQ(engines::backoff_delay(cfg, 0xABC, 1), 1000u);
  EXPECT_EQ(engines::backoff_delay(cfg, 0xABC, 2), 2000u);
  EXPECT_EQ(engines::backoff_delay(cfg, 0xABC, 3), 4000u);
  EXPECT_EQ(engines::backoff_delay(cfg, 0xABC, 4), 8000u);
  EXPECT_EQ(engines::backoff_delay(cfg, 0xABC, 5), 8000u);   // capped
  EXPECT_EQ(engines::backoff_delay(cfg, 0xABC, 64), 8000u);  // no overflow
}

TEST(Recovery, BackoffJitterIsBoundedAndDeterministic) {
  engines::HostDriverConfig cfg;
  cfg.tx_timeout = 1000;
  cfg.max_backoff = 1u << 20;
  cfg.jitter = 0.25;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const Cycles base = cfg.tx_timeout << (attempt - 1);
    const Cycles d = engines::backoff_delay(cfg, 0x5EED, attempt);
    EXPECT_GE(d, static_cast<Cycles>(static_cast<double>(base) * 0.75));
    EXPECT_LT(d, static_cast<Cycles>(static_cast<double>(base) * 1.25) + 1);
    // Pure function: the schedule is reproducible draw by draw.
    EXPECT_EQ(d, engines::backoff_delay(cfg, 0x5EED, attempt));
  }
  // Distinct descriptors desynchronize (the whole point of the jitter).
  bool differs = false;
  for (std::uint64_t desc = 0; desc < 8 && !differs; ++desc) {
    differs = engines::backoff_delay(cfg, desc, 1) !=
              engines::backoff_delay(cfg, desc + 1, 1);
  }
  EXPECT_TRUE(differs);
}

// --- End-to-end: revive rejoins the equivalence group. ---

TEST(Recovery, ReviveRejoinsAndClosesTheIncident) {
  ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(2);
  cfg.faults.kill("aux0", 2000).revive("aux0", 8000, /*warmup=*/100);
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 120;
  inject_stream(sim, nic, kFrames, 100);  // arrivals straddle the revive
  sim.run(40000);

  auto& m = sim.telemetry().metrics();
  EXPECT_EQ(m.counter("fault.injected.kill"), 1u);
  EXPECT_EQ(m.counter("fault.injected.revive"), 1u);

  // Traffic flowed throughout: the death healed to aux1, the revive put
  // aux0 back in rotation, and every frame is accounted for.
  const std::uint64_t delivered = nic.dma().packets_to_host();
  const std::uint64_t faulted = m.counter("engine.aux0.faulted_discards");
  EXPECT_EQ(delivered + faulted, static_cast<std::uint64_t>(kFrames));
  EXPECT_FALSE(nic.aux(0).faulted_dead());
  // Post-warmup chains steer back to aux0 (processed moves again).
  EXPECT_GT(m.counter("engine.aux0.processed"), 0u);

  ASSERT_NE(nic.recovery_tracker(), nullptr);
  EXPECT_EQ(nic.recovery_tracker()->incidents(), 1u);
  EXPECT_EQ(nic.recovery_tracker()->restored_count(), 1u);
  EXPECT_EQ(nic.recovery_tracker()->open_count(), 0u);
  EXPECT_EQ(m.counter("fault.recovery.incidents"), 1u);
  EXPECT_EQ(m.counter("fault.recovery.restored"), 1u);

  EXPECT_TRUE(conservation.verify_or_log())
      << conservation.delta().to_string();
  EXPECT_EQ(conservation.delta().live, 0);
}

// --- End-to-end: empty group, backpressure parks, spare drains. ---

TEST(Recovery, SpareActivationDrainsParkedBacklog) {
  ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(2);
  cfg.on_no_route = NoRoutePolicy::kBackpressure;
  cfg.no_route_depth = 64;
  // Both group members die; the spare verb revives aux1 as aux0's
  // standby and installs the steering fallback.
  cfg.faults.kill("aux0", 2000)
      .kill("aux1", 3000)
      .spare("aux1", "aux0", 9000);
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 100;
  inject_stream(sim, nic, kFrames, 100);
  sim.run(50000);

  auto& m = sim.telemetry().metrics();
  EXPECT_EQ(m.counter("fault.injected.spare"), 1u);

  // The empty-group window parked (not dropped) arrivals...
  const auto snap = sim.snapshot();
  EXPECT_GT(snap.sum("", ".no_route_parked"), 0.0);
  EXPECT_EQ(snap.sum("", ".no_route_shed"), 0.0);  // depth never overflowed

  // ...and the spare drained them: every frame delivered or attributed
  // to the kills themselves, nothing left live.
  const std::uint64_t delivered = nic.dma().packets_to_host();
  const std::uint64_t faulted = m.counter("engine.aux0.faulted_discards") +
                                m.counter("engine.aux1.faulted_discards");
  EXPECT_EQ(delivered + faulted, static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(delivered, static_cast<std::uint64_t>(kFrames) / 2);

  ASSERT_NE(nic.recovery_tracker(), nullptr);
  EXPECT_GE(nic.recovery_tracker()->restored_count(), 1u);
  EXPECT_TRUE(conservation.verify_or_log())
      << conservation.delta().to_string();
  EXPECT_EQ(conservation.delta().live, 0);
}

TEST(Recovery, BackpressureShedsAtTheDepthBound) {
  ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(1);  // group of one: no healing
  cfg.on_no_route = NoRoutePolicy::kBackpressure;
  cfg.no_route_depth = 4;
  cfg.faults.kill("aux0", 500);  // never revived
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 40;
  inject_stream(sim, nic, kFrames, 50);
  sim.run(20000);

  // Bounded backpressure: at most `depth` messages park per steering
  // tile, the overflow is shed with its own fate — never unbounded
  // queueing, never silent loss.
  const auto snap = sim.snapshot();
  EXPECT_GT(snap.sum("", ".no_route_parked"), 0.0);
  EXPECT_GT(snap.sum("", ".no_route_shed"), 0.0);
  EXPECT_LE(snap.at("rmt.rmt0.no_route_watermark").value, 4.0);

  EXPECT_TRUE(conservation.verify_or_log())
      << conservation.delta().to_string();
  EXPECT_EQ(conservation.delta().shed,
            static_cast<std::int64_t>(snap.sum("", ".no_route_shed")));
  // The parked-forever messages are live, not lost.
  EXPECT_GT(conservation.delta().live, 0);
}

// --- Watchdog escalation feeds fault.recovery.* in every kernel. ---

TEST(Recovery, WatchdogEscalationIsIdenticalInBothKernels) {
  using Result =
      std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;
  const auto run_mode = [](SimMode mode) -> Result {
    Simulator sim(Frequency::megahertz(500), mode);
    core::PanicConfig cfg = aux_chain_config(1);
    // A long stall with work queued behind it: the watchdog must flag
    // the wedge, escalate into the tracker, then see it recover.
    // Arrivals (every 40 cycles) outpace aux0's 50-cycle service, so the
    // engine is mid-service with a backlog when the stall lands — a
    // wedge the busy-probe can see (work parked *inside* the engine, not
    // just backed up in the NoC).
    cfg.faults.stall("aux0", 2000, 6000);
    cfg.watchdog.period = 64;
    cfg.watchdog.threshold = 256;
    core::PanicNic nic(cfg, sim);
    inject_stream(sim, nic, 60, 40);
    sim.run(30000);
    auto& m = sim.telemetry().metrics();
    return {m.counter("fault.recovery.watchdog_flags"),
            m.counter("fault.recovery.incidents"),
            m.counter("fault.recovery.restored"),
            nic.dma().packets_to_host()};
  };

  const Result dense = run_mode(SimMode::kStrictTick);
  const Result event = run_mode(SimMode::kEventDriven);
  EXPECT_GT(std::get<0>(dense), 0u);  // the wedge was flagged
  EXPECT_GT(std::get<2>(dense), 0u);  // and seen recovering
  EXPECT_EQ(dense, event);
}

// --- Whole lifecycle, differentially, through the oracle suite. ---

TEST(Recovery, KillParkReviveDrainPassesEveryOracle) {
  scenario::Scenario s;
  s.name = "recovery_lifecycle";
  s.mesh_k = 5;
  s.eth_ports = 1;
  s.rmt_engines = 1;
  s.aux_engines = 2;
  s.on_no_route = NoRoutePolicy::kBackpressure;
  s.budget_cycles = 60000;

  scenario::WorkloadSpec w;
  w.name = "gen";
  w.kind = scenario::WorkloadSpec::Kind::kUdp;
  w.pattern = workload::ArrivalPattern::kConstantRate;
  w.mean_gap_cycles = 100;
  w.max_frames = 150;
  w.dst_port = kAuxPort;
  s.workloads.push_back(w);
  s.program =
      "stage recovery_offload {\n"
      "  table offload_port exact(l4.dport) {\n"
      "    7777 -> clear_chain, chain(aux0, dma);\n"
      "  }\n"
      "}\n";

  // Kill both group members (empty group: backpressure parks), then
  // revive both — a fully recoverable storm, so the convergence oracle
  // applies on top of the dense-vs-event differential and conservation.
  s.faults.kill("aux0", 4000)
      .kill("aux1", 5000)
      .revive("aux0", 9000, /*warmup=*/100)
      .revive("aux1", 11000);
  ASSERT_TRUE(proptest::plan_recoverable(s));

  const auto violations = proptest::check_scenario(s);
  EXPECT_TRUE(violations.empty()) << proptest::to_string(violations);
}

TEST(Recovery, UncoveredKillIsNotARecoverablePlan) {
  scenario::Scenario s;
  s.aux_engines = 2;
  scenario::WorkloadSpec w;
  w.max_frames = 10;
  s.workloads.push_back(w);
  s.faults.kill("aux0", 1000).kill("aux1", 2000).revive("aux0", 5000);
  EXPECT_FALSE(proptest::plan_recoverable(s));  // aux1 never comes back
  s.faults.spare("aux0", "aux1", 6000);  // aux0 stands in for aux1
  EXPECT_TRUE(proptest::plan_recoverable(s));
  s.faults.stall("dma", 100, 0);  // a forever-stall never drains
  EXPECT_FALSE(proptest::plan_recoverable(s));
}

}  // namespace
}  // namespace panic::fault
