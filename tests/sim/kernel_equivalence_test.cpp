// Pins the central claim of the simulation kernels: kStrictTick,
// kEventDriven and kParallelShards are cycle-identical.  A full PANIC NIC
// under a bursty multi-tenant workload (the §3.1.3 isolation scenario) must
// produce the same statistics, to the cycle, in all three modes — while the
// event kernel executes far fewer component ticks and the parallel kernel
// splits the mesh across shards.  The same holds under an active FaultPlan.
// Plus targeted tests for the wake protocol itself: wake-on-enqueue,
// sleep-with-deadline, empty-active-set fast-forward, late-event
// determinism, and the slot-ordering rule, including mid-scan wakes across
// the active bitmap's words.  The file carries the `equivalence` label,
// which CI also runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/panic_nic.h"
#include "fault/invariants.h"
#include "sim/simulator.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

namespace panic {
namespace {

// --- Dense-vs-event equivalence on the multi-tenant isolation scenario. ---

struct ScenarioResult {
  Cycle final_cycle = 0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t bulk_generated = 0;
  std::uint64_t inter_generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t flits_routed = 0;
  std::uint64_t rmt_passes = 0;
  std::uint64_t dma_queue_drops = 0;
  std::size_t dma_queue_max_depth = 0;
  std::uint64_t t1_count = 0, t1_p50 = 0, t1_p99 = 0, t1_max = 0;
  std::uint64_t t2_count = 0, t2_p50 = 0, t2_p99 = 0, t2_max = 0;
};

ScenarioResult run_isolation_scenario(SimMode mode, Cycles cycles,
                                      int threads = 0) {
  Simulator sim(Frequency::megahertz(500), mode, threads);
  core::PanicConfig config;
  config.mesh.k = 4;
  config.sched_policy = engines::SchedPolicy::kSlackPriority;
  config.tenant_slacks = {{1, 10}, {2, 100000}};
  config.dma.contention_mean = 150.0;  // exercises the DMA's Rng draws
  core::PanicNic nic(config, sim);

  const Ipv4Addr interactive_client(10, 1, 0, 2);
  const Ipv4Addr bulk_client(10, 2, 0, 9);
  const Ipv4Addr server(10, 0, 0, 1);

  // Bulk tenant: line-rate bursts with long idle gaps — the idle-heavy
  // shape the event kernel exists for.
  workload::TrafficConfig bulk_traffic;
  bulk_traffic.pattern = workload::ArrivalPattern::kOnOff;
  bulk_traffic.mean_gap_cycles = 15.0;
  bulk_traffic.on_cycles = 5000;
  bulk_traffic.off_cycles = 20000;
  bulk_traffic.tenant = TenantId{2};
  workload::TrafficSource bulk(
      "bulk", &nic.eth_port(1),
      workload::make_udp_factory(bulk_client, server, 1500), bulk_traffic);
  sim.add(&bulk);

  // Interactive tenant: sparse Poisson requests.
  workload::TrafficConfig inter_traffic;
  inter_traffic.pattern = workload::ArrivalPattern::kPoisson;
  inter_traffic.mean_gap_cycles = 2500.0;
  inter_traffic.tenant = TenantId{1};
  workload::TrafficSource interactive(
      "interactive", &nic.eth_port(0),
      workload::make_min_frame_factory(interactive_client, server),
      inter_traffic);
  sim.add(&interactive);

  sim.run(cycles);

  ScenarioResult r;
  r.final_cycle = sim.now();
  r.events = sim.events_executed();
  r.ticks = sim.component_ticks();
  r.bulk_generated = bulk.generated();
  r.inter_generated = interactive.generated();
  r.delivered = nic.dma().packets_to_host();
  r.flits_routed = nic.mesh().total_flits_routed();
  r.rmt_passes = nic.total_rmt_passes();
  r.dma_queue_drops = nic.dma().queue().dropped();
  r.dma_queue_max_depth = nic.dma().queue().max_depth();
  const auto& t1 = nic.dma().host_delivery_latency(TenantId{1});
  const auto& t2 = nic.dma().host_delivery_latency(TenantId{2});
  r.t1_count = t1.count();
  r.t1_p50 = t1.p50();
  r.t1_p99 = t1.p99();
  r.t1_max = t1.max();
  r.t2_count = t2.count();
  r.t2_p50 = t2.p50();
  r.t2_p99 = t2.p99();
  r.t2_max = t2.max();
  return r;
}

TEST(KernelEquivalence, MultiTenantIsolationIsCycleIdentical) {
  constexpr Cycles kCycles = 100000;
  const ScenarioResult dense =
      run_isolation_scenario(SimMode::kStrictTick, kCycles);
  const ScenarioResult event =
      run_isolation_scenario(SimMode::kEventDriven, kCycles);

  EXPECT_EQ(dense.final_cycle, event.final_cycle);
  EXPECT_EQ(dense.events, event.events);
  EXPECT_EQ(dense.bulk_generated, event.bulk_generated);
  EXPECT_EQ(dense.inter_generated, event.inter_generated);
  EXPECT_EQ(dense.delivered, event.delivered);
  EXPECT_EQ(dense.flits_routed, event.flits_routed);
  EXPECT_EQ(dense.rmt_passes, event.rmt_passes);
  EXPECT_EQ(dense.dma_queue_drops, event.dma_queue_drops);
  EXPECT_EQ(dense.dma_queue_max_depth, event.dma_queue_max_depth);
  EXPECT_EQ(dense.t1_count, event.t1_count);
  EXPECT_EQ(dense.t1_p50, event.t1_p50);
  EXPECT_EQ(dense.t1_p99, event.t1_p99);
  EXPECT_EQ(dense.t1_max, event.t1_max);
  EXPECT_EQ(dense.t2_count, event.t2_count);
  EXPECT_EQ(dense.t2_p50, event.t2_p50);
  EXPECT_EQ(dense.t2_p99, event.t2_p99);
  EXPECT_EQ(dense.t2_max, event.t2_max);

  // Sanity: the scenario actually exercised the NIC...
  EXPECT_GT(dense.delivered, 0u);
  EXPECT_GT(dense.t1_count, 0u);
  EXPECT_GT(dense.t2_count, 0u);
  // ...and the event kernel did meaningfully less work to get there.
  EXPECT_LT(event.ticks, dense.ticks);
}

TEST(KernelEquivalence, ParallelShardsMatchesDenseOnIsolationScenario) {
  constexpr Cycles kCycles = 100000;
  const ScenarioResult dense =
      run_isolation_scenario(SimMode::kStrictTick, kCycles);
  // Three threads do not divide the 16-tile mesh evenly, so this also
  // covers uneven tile bands.
  const ScenarioResult par =
      run_isolation_scenario(SimMode::kParallelShards, kCycles, /*threads=*/3);

  EXPECT_EQ(dense.final_cycle, par.final_cycle);
  EXPECT_EQ(dense.events, par.events);
  EXPECT_EQ(dense.bulk_generated, par.bulk_generated);
  EXPECT_EQ(dense.inter_generated, par.inter_generated);
  EXPECT_EQ(dense.delivered, par.delivered);
  EXPECT_EQ(dense.flits_routed, par.flits_routed);
  EXPECT_EQ(dense.rmt_passes, par.rmt_passes);
  EXPECT_EQ(dense.dma_queue_drops, par.dma_queue_drops);
  EXPECT_EQ(dense.dma_queue_max_depth, par.dma_queue_max_depth);
  EXPECT_EQ(dense.t1_count, par.t1_count);
  EXPECT_EQ(dense.t1_p50, par.t1_p50);
  EXPECT_EQ(dense.t1_p99, par.t1_p99);
  EXPECT_EQ(dense.t1_max, par.t1_max);
  EXPECT_EQ(dense.t2_count, par.t2_count);
  EXPECT_EQ(dense.t2_p50, par.t2_p50);
  EXPECT_EQ(dense.t2_p99, par.t2_p99);
  EXPECT_EQ(dense.t2_max, par.t2_max);
  EXPECT_GT(par.delivered, 0u);
  // The parallel kernel keeps the event kernel's quiescence machinery, so
  // it too does less tick work than dense.
  EXPECT_LT(par.ticks, dense.ticks);
}

TEST(KernelEquivalence, ParallelShardsLayoutIndependent) {
  // The shard layout must be unobservable: 1, 2 and 4 threads (and the
  // sequential event kernel) all produce the same statistics.
  constexpr Cycles kCycles = 60000;
  const ScenarioResult ref =
      run_isolation_scenario(SimMode::kEventDriven, kCycles);
  for (const int threads : {1, 2, 4}) {
    const ScenarioResult par =
        run_isolation_scenario(SimMode::kParallelShards, kCycles, threads);
    EXPECT_EQ(ref.final_cycle, par.final_cycle) << "threads=" << threads;
    EXPECT_EQ(ref.events, par.events) << "threads=" << threads;
    EXPECT_EQ(ref.delivered, par.delivered) << "threads=" << threads;
    EXPECT_EQ(ref.flits_routed, par.flits_routed) << "threads=" << threads;
    EXPECT_EQ(ref.rmt_passes, par.rmt_passes) << "threads=" << threads;
    EXPECT_EQ(ref.dma_queue_drops, par.dma_queue_drops)
        << "threads=" << threads;
    EXPECT_EQ(ref.t1_count, par.t1_count) << "threads=" << threads;
    EXPECT_EQ(ref.t1_p99, par.t1_p99) << "threads=" << threads;
    EXPECT_EQ(ref.t2_count, par.t2_count) << "threads=" << threads;
    EXPECT_EQ(ref.t2_p99, par.t2_p99) << "threads=" << threads;
  }
}

// --- Equivalence under an active FaultPlan.  Faults are scheduled through
// the same event queue as everything else, and their randomness comes from
// plan-seeded streams — so a faulty run must stay cycle-identical across
// kernel modes too. ---

struct FaultScenarioResult {
  Cycle final_cycle = 0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t aux_generated = 0;
  std::uint64_t plain_generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t flits_routed = 0;
  std::uint64_t rmt_passes = 0;
  double resteered = 0;
  double corrupted = 0;
  double engine_faulted = 0;
  double rmt_faulted = 0;
  double flits_delayed = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t engines_dead = 0;
  std::uint64_t watchdog_checks = 0;
  std::uint64_t watchdog_flags = 0;
  std::int64_t conservation_faulted = 0;
  bool conserved = false;
};

FaultScenarioResult run_fault_scenario(SimMode mode, Cycles cycles,
                                       int threads = 0) {
  fault::ConservationChecker conservation;
  Simulator sim(Frequency::megahertz(500), mode, threads);

  core::PanicConfig cfg;
  cfg.mesh.k = 5;
  cfg.aux_engines = 2;
  cfg.aux_fixed_cycles = 50;
  constexpr std::uint16_t kAuxPort = 7777;
  cfg.customize_program = [](rmt::RmtProgram& program,
                             const core::PanicTopology& topo) {
    auto& stage = program.add_stage("aux_select");
    rmt::MatchTable t("aux_port", rmt::MatchKind::kExact,
                      {rmt::Field::kL4DstPort});
    t.add_exact(kAuxPort, rmt::Action("to_aux")
                              .clear_chain()
                              .push_hop(topo.aux[0].value)
                              .push_hop(topo.dma.value));
    stage.tables.push_back(std::move(t));
  };

  // One of everything: a death mid-run (healed through the aux equivalence
  // group), a stall, randomized corruption, and a randomized flaky link.
  const auto topo = core::PanicNic::plan_topology(cfg);
  cfg.faults.seed = 99;
  cfg.faults.kill("aux0", 15000)
      .stall("dma", 5000, 1500)
      .corrupt("aux1", 0, 0.05)
      .flaky_link(static_cast<int>(topo.dma.value), /*port=*/-1, 2000,
                  /*probability=*/0.25, /*delay=*/6, /*duration=*/0);
  core::PanicNic nic(cfg, sim);

  const Ipv4Addr client(10, 1, 0, 2), server(10, 0, 0, 1);
  workload::TrafficConfig aux_traffic;
  aux_traffic.pattern = workload::ArrivalPattern::kPoisson;
  aux_traffic.mean_gap_cycles = 400.0;
  workload::TrafficSource aux_src(
      "aux_traffic", &nic.eth_port(0),
      workload::make_udp_factory(client, server, 256, kAuxPort), aux_traffic);
  sim.add(&aux_src);

  workload::TrafficConfig plain_traffic;
  plain_traffic.pattern = workload::ArrivalPattern::kPoisson;
  plain_traffic.mean_gap_cycles = 900.0;
  plain_traffic.tenant = TenantId{2};
  workload::TrafficSource plain_src(
      "plain_traffic", &nic.eth_port(1),
      workload::make_min_frame_factory(client, server), plain_traffic);
  sim.add(&plain_src);

  sim.run(cycles);

  FaultScenarioResult r;
  r.final_cycle = sim.now();
  r.events = sim.events_executed();
  r.ticks = sim.component_ticks();
  r.aux_generated = aux_src.generated();
  r.plain_generated = plain_src.generated();
  r.delivered = nic.dma().packets_to_host();
  r.flits_routed = nic.mesh().total_flits_routed();
  r.rmt_passes = nic.total_rmt_passes();
  const auto snap = sim.telemetry().metrics().snapshot();
  r.resteered = snap.sum("rmt.", ".resteered");
  r.corrupted = snap.sum("engine.", ".corrupted");
  r.engine_faulted = snap.sum("engine.", ".faulted_discards");
  r.rmt_faulted = snap.sum("rmt.", ".faulted_drops");
  r.flits_delayed = snap.sum("noc.router.", ".flits_delayed");
  r.faults_injected = snap.counter("fault.injected");
  r.engines_dead = snap.counter("fault.engines_dead");
  r.watchdog_checks = nic.watchdog()->checks();
  r.watchdog_flags = nic.watchdog()->flags_raised();
  r.conservation_faulted = conservation.delta().faulted;
  r.conserved = conservation.verify_or_log();
  return r;
}

TEST(KernelEquivalence, ActiveFaultPlanIsCycleIdentical) {
  constexpr Cycles kCycles = 60000;
  const FaultScenarioResult dense =
      run_fault_scenario(SimMode::kStrictTick, kCycles);
  const FaultScenarioResult event =
      run_fault_scenario(SimMode::kEventDriven, kCycles);

  EXPECT_EQ(dense.final_cycle, event.final_cycle);
  EXPECT_EQ(dense.events, event.events);
  EXPECT_EQ(dense.aux_generated, event.aux_generated);
  EXPECT_EQ(dense.plain_generated, event.plain_generated);
  EXPECT_EQ(dense.delivered, event.delivered);
  EXPECT_EQ(dense.flits_routed, event.flits_routed);
  EXPECT_EQ(dense.rmt_passes, event.rmt_passes);
  EXPECT_EQ(dense.resteered, event.resteered);
  EXPECT_EQ(dense.corrupted, event.corrupted);
  EXPECT_EQ(dense.engine_faulted, event.engine_faulted);
  EXPECT_EQ(dense.rmt_faulted, event.rmt_faulted);
  EXPECT_EQ(dense.flits_delayed, event.flits_delayed);
  EXPECT_EQ(dense.faults_injected, event.faults_injected);
  EXPECT_EQ(dense.engines_dead, event.engines_dead);
  EXPECT_EQ(dense.watchdog_checks, event.watchdog_checks);
  EXPECT_EQ(dense.watchdog_flags, event.watchdog_flags);
  EXPECT_EQ(dense.conservation_faulted, event.conservation_faulted);

  // Sanity: every fault actually fired and the NIC kept delivering...
  EXPECT_EQ(dense.faults_injected, 4u);
  EXPECT_EQ(dense.engines_dead, 1u);
  EXPECT_GT(dense.delivered, 0u);
  EXPECT_GT(dense.flits_delayed, 0.0);
  EXPECT_GT(dense.corrupted, 0.0);
  EXPECT_TRUE(dense.conserved);
  EXPECT_TRUE(event.conserved);
  // ...and the event kernel still did less work under faults.
  EXPECT_LT(event.ticks, dense.ticks);
}

TEST(KernelEquivalence, ActiveFaultPlanIsCycleIdenticalUnderParallelShards) {
  // Faults fire cycle-exactly under the sharded kernel: injector events run
  // in the serial event phase before the fork, and the fault Rng streams
  // are plan-seeded, so a faulty parallel run matches dense to the cycle.
  constexpr Cycles kCycles = 60000;
  const FaultScenarioResult dense =
      run_fault_scenario(SimMode::kStrictTick, kCycles);
  const FaultScenarioResult par =
      run_fault_scenario(SimMode::kParallelShards, kCycles, /*threads=*/3);

  EXPECT_EQ(dense.final_cycle, par.final_cycle);
  EXPECT_EQ(dense.events, par.events);
  EXPECT_EQ(dense.aux_generated, par.aux_generated);
  EXPECT_EQ(dense.plain_generated, par.plain_generated);
  EXPECT_EQ(dense.delivered, par.delivered);
  EXPECT_EQ(dense.flits_routed, par.flits_routed);
  EXPECT_EQ(dense.rmt_passes, par.rmt_passes);
  EXPECT_EQ(dense.resteered, par.resteered);
  EXPECT_EQ(dense.corrupted, par.corrupted);
  EXPECT_EQ(dense.engine_faulted, par.engine_faulted);
  EXPECT_EQ(dense.rmt_faulted, par.rmt_faulted);
  EXPECT_EQ(dense.flits_delayed, par.flits_delayed);
  EXPECT_EQ(dense.faults_injected, par.faults_injected);
  EXPECT_EQ(dense.engines_dead, par.engines_dead);
  EXPECT_EQ(dense.watchdog_checks, par.watchdog_checks);
  EXPECT_EQ(dense.watchdog_flags, par.watchdog_flags);
  EXPECT_EQ(dense.conservation_faulted, par.conservation_faulted);
  EXPECT_EQ(par.faults_injected, 4u);
  EXPECT_TRUE(par.conserved);
}

// --- Targeted wake-protocol tests. ---

/// Goes quiescent when empty; producers push work and wake it.
class Sink : public Component {
 public:
  Sink() : Component("sink") {}
  void push(int v, Cycle now) {
    q_.push_back(v);
    request_wake(now);
  }
  void tick(Cycle now) override {
    if (!q_.empty()) {
      consumed.push_back(now);
      q_.pop_front();
    }
  }
  Cycle next_wake(Cycle now) const override {
    return q_.empty() ? kNeverWake : now + 1;
  }
  std::vector<Cycle> consumed;

 private:
  std::deque<int> q_;
};

/// Sleeps `period` cycles between ticks via a wake deadline.
class Metronome : public Component {
 public:
  explicit Metronome(Cycles period) : Component("metronome"), period_(period) {}
  void tick(Cycle now) override { tick_cycles.push_back(now); }
  Cycle next_wake(Cycle now) const override { return now + period_; }
  std::vector<Cycle> tick_cycles;

 private:
  Cycles period_;
};

TEST(KernelWake, WakeOnEnqueueRevivesQuiescentComponent) {
  Simulator sim;
  Sink sink;
  sim.add(&sink);
  sim.run(100);  // sink ticks once at cycle 0, then goes quiescent

  sim.schedule_at(150, [&] { sink.push(7, sim.now()); });
  sim.run(100);

  ASSERT_EQ(sink.consumed.size(), 1u);
  EXPECT_EQ(sink.consumed[0], 150u);  // same cycle as the producing event
  EXPECT_EQ(sim.component_ticks(), 2u);
  EXPECT_GT(sim.fast_forwarded_cycles(), 0u);
  EXPECT_EQ(sim.now(), 200u);
}

TEST(KernelWake, SleepWithDeadlineTicksExactlyOnSchedule) {
  Simulator sim;
  Metronome m(1000);
  sim.add(&m);
  sim.run(10000);

  const std::vector<Cycle> expected{0,    1000, 2000, 3000, 4000,
                                    5000, 6000, 7000, 8000, 9000};
  EXPECT_EQ(m.tick_cycles, expected);
  EXPECT_EQ(sim.component_ticks(), 10u);
  EXPECT_EQ(sim.fast_forwarded_cycles(), 10000u - 10u);
}

TEST(KernelWake, EmptyActiveSetFastForwardsToNextEvent) {
  Simulator sim;
  Cycle fired_at = 0;
  sim.schedule_at(7000, [&] { fired_at = sim.now(); });
  sim.run(20000);

  EXPECT_EQ(fired_at, 7000u);
  EXPECT_EQ(sim.now(), 20000u);
  // Only cycles 0 and 7000 execute; everything else is skipped.
  EXPECT_EQ(sim.fast_forwarded_cycles(), 20000u - 2u);
}

TEST(KernelWake, LateEventIsDeterministicInBothModes) {
  for (const SimMode mode : {SimMode::kEventDriven, SimMode::kStrictTick}) {
    Simulator sim(Frequency::megahertz(500), mode);
    sim.run(10);
    Cycle fired_at = 0;
    sim.schedule_at(3, [&] { fired_at = sim.now(); });  // already past
    sim.run(5);
    // Fires at the start of the next executed cycle — never skipped by
    // fast-forward, never run retroactively.
    EXPECT_EQ(fired_at, 10u) << "mode=" << static_cast<int>(mode);
    EXPECT_EQ(sim.now(), 15u);
  }
}

/// Pushes one value into a Sink at a fixed cycle (stays always-active via
/// the default next_wake so the push happens from the tick phase).
class OneShotProducer : public Component {
 public:
  OneShotProducer(Sink* sink, Cycle at)
      : Component("producer"), sink_(sink), at_(at) {}
  void tick(Cycle now) override {
    if (now == at_) sink_->push(1, now);
  }

 private:
  Sink* sink_;
  Cycle at_;
};

TEST(KernelWake, SameCycleWakeRespectsTickOrder) {
  // Waker runs after the target's slot: the target already ticked this
  // cycle, so the wake defers to the next cycle — exactly when a dense
  // kernel's tick of the target would first observe the pushed work.
  {
    Simulator sim;
    Sink sink;                          // slot 0
    OneShotProducer prod(&sink, 5);     // slot 1, pushes during cycle 5
    sim.add(&sink);
    sim.add(&prod);
    sim.run(10);
    ASSERT_EQ(sink.consumed.size(), 1u);
    EXPECT_EQ(sink.consumed[0], 6u);
  }
  // Waker runs before the target's slot: the target's tick this cycle is
  // still ahead, so it consumes the push the same cycle — as in dense mode.
  {
    Simulator sim;
    Sink sink;
    OneShotProducer prod(&sink, 5);
    sim.add(&prod);                     // slot 0
    sim.add(&sink);                     // slot 1
    sim.run(10);
    ASSERT_EQ(sink.consumed.size(), 1u);
    EXPECT_EQ(sink.consumed[0], 5u);
  }
}

TEST(KernelWake, StrictTickModeNeverSleeps) {
  Simulator sim(Frequency::megahertz(500), SimMode::kStrictTick);
  Sink sink;  // would be quiescent in event mode
  sim.add(&sink);
  sim.run(100);
  EXPECT_EQ(sim.component_ticks(), 100u);
  EXPECT_EQ(sim.fast_forwarded_cycles(), 0u);
}

// --- Mid-scan wakes across the active bitmap's 64-slot words. ---

/// Consumes one token per tick while it holds any and hands tokens to
/// other nodes at scripted cycles; otherwise sleeps until its next
/// scripted cycle.  `log` holds the cycles in which it consumed a token:
/// its observable ticks, which every kernel must reproduce.
class ScriptedNode : public Component {
 public:
  explicit ScriptedNode(int id) : Component("node" + std::to_string(id)) {}
  void give(Cycle now) {
    ++tokens_;
    request_wake(now);
  }
  /// Hands `target` a token at cycle `at`; calls come in cycle order.
  void give_at(Cycle at, ScriptedNode* target) {
    script_.push_back({at, target});
  }
  void tick(Cycle now) override {
    if (tokens_ > 0) {
      --tokens_;
      log.push_back(now);
    }
    while (next_ < script_.size() && script_[next_].at == now) {
      script_[next_++].target->give(now);
    }
  }
  Cycle next_wake(Cycle now) const override {
    if (tokens_ > 0) return now + 1;
    return next_ < script_.size() ? script_[next_].at : kNeverWake;
  }
  std::vector<Cycle> log;

 private:
  struct Give {
    Cycle at;
    ScriptedNode* target;
  };
  std::vector<Give> script_;
  std::size_t next_ = 0;
  int tokens_ = 0;
};

struct ScriptedGive {
  Cycle at;
  int from;
  int to;
};

// Four bitmap words in the sequential kernels, two per shard in the
// 3-shard parallel kernel (node i on shard i % 3, so shard 0's 64th slot
// is node 192).  Gives stay within a shard: a cross-shard wake aborts.
constexpr int kScriptedNodes = 256;
constexpr Cycles kScriptCycles = 20;

/// Per-node logs of `gives` run for kScriptCycles under `mode`.  With
/// `late_gives`, node kScriptedNodes, holding one token, is then added
/// and the simulator runs kScriptCycles more; in kParallelShards it joins
/// the serial suffix, so only it may give in that phase.
std::vector<std::vector<Cycle>> run_wake_script(
    SimMode mode, const std::vector<ScriptedGive>& gives,
    const std::vector<ScriptedGive>& late_gives) {
  Simulator sim(Frequency::megahertz(500), mode, 3);
  std::vector<std::unique_ptr<ScriptedNode>> nodes;
  for (int i = 0; i <= kScriptedNodes; ++i) {
    nodes.push_back(std::make_unique<ScriptedNode>(i));
  }
  for (const auto* list : {&gives, &late_gives}) {
    for (const ScriptedGive& g : *list) {
      nodes[g.from]->give_at(g.at, nodes[g.to].get());
    }
  }
  for (int i = 0; i < kScriptedNodes; ++i) {
    sim.add(nodes[i].get());
    sim.set_shard(nodes[i].get(), i % 3);  // no-op in the sequential modes
  }
  sim.run(kScriptCycles);
  if (!late_gives.empty()) {
    ScriptedNode& late = *nodes[kScriptedNodes];
    late.give(0);  // not registered yet: banks the token without a wake
    sim.add(&late);
    sim.run(kScriptCycles);
  }
  std::vector<std::vector<Cycle>> logs;
  for (const auto& n : nodes) logs.push_back(n->log);
  return logs;
}

/// The event kernel's logs, after requiring the dense kernel and the
/// 3-shard parallel kernel to produce the same ones.
std::vector<std::vector<Cycle>> logs_in_every_kernel(
    const std::vector<ScriptedGive>& gives,
    const std::vector<ScriptedGive>& late_gives = {}) {
  const auto event = run_wake_script(SimMode::kEventDriven, gives, late_gives);
  EXPECT_EQ(event, run_wake_script(SimMode::kStrictTick, gives, late_gives))
      << "dense";
  EXPECT_EQ(event,
            run_wake_script(SimMode::kParallelShards, gives, late_gives))
      << "parallel";
  return event;
}

TEST(KernelWake, MidScanWakeOfLaterSlotTicksThisCycle) {
  // Within one word (10 -> 13), onto and over the 63 -> 64 and 127 -> 128
  // word boundaries, and over shard 0's own word boundary (189 -> 192).
  const std::vector<ScriptedGive> gives{{5, 10, 13},   {5, 61, 64},
                                        {5, 63, 66},   {5, 125, 128},
                                        {5, 127, 130}, {5, 189, 192}};
  const auto logs = logs_in_every_kernel(gives);
  for (const ScriptedGive& g : gives) {
    EXPECT_EQ(logs[g.to], std::vector<Cycle>{5}) << "node " << g.to;
  }
}

TEST(KernelWake, MidScanWakeOfEarlierSlotIsDeferred) {
  // The same pairs reversed, plus the last word back to the first: the
  // target's slot was already passed this cycle.
  const std::vector<ScriptedGive> gives{
      {5, 13, 10},   {5, 64, 61},   {5, 66, 63}, {5, 128, 125},
      {5, 130, 127}, {5, 192, 189}, {5, 255, 0}};
  const auto logs = logs_in_every_kernel(gives);
  for (const ScriptedGive& g : gives) {
    EXPECT_EQ(logs[g.to], std::vector<Cycle>{6}) << "node " << g.to;
  }
}

TEST(KernelWake, ParkedSlotRewokenByLaterSlotTicksNextCycle) {
  // Nodes 4 and 64 each consume a token from an earlier node and park
  // during cycle 5; a later node (in the same word, two words on) then
  // hands them another, which they consume at cycle 6.
  const std::vector<ScriptedGive> gives{
      {5, 1, 4}, {5, 7, 4}, {5, 61, 64}, {5, 130, 64}};
  const auto logs = logs_in_every_kernel(gives);
  EXPECT_EQ(logs[4], (std::vector<Cycle>{5, 6}));
  EXPECT_EQ(logs[64], (std::vector<Cycle>{5, 6}));
}

TEST(KernelWake, ComponentAddedBetweenRunsOpensNewWord) {
  // The added node is the first slot of a fifth word.  It ticks at once,
  // then hands tokens to an earlier node and to itself, both behind the
  // cursor, so both land at the next cycle.
  constexpr int kLate = kScriptedNodes;
  const std::vector<ScriptedGive> late_gives{{25, kLate, 3},
                                             {25, kLate, kLate}};
  const auto logs = logs_in_every_kernel({{5, 10, 13}}, late_gives);
  EXPECT_EQ(logs[kLate], (std::vector<Cycle>{20, 26}));
  EXPECT_EQ(logs[3], std::vector<Cycle>{26});
  EXPECT_EQ(logs[13], std::vector<Cycle>{5});
}

}  // namespace
}  // namespace panic
