// End-to-end fault injection on the composed PANIC NIC: engines die,
// stall, degrade and corrupt; NoC links go flaky; and the system either
// self-heals (chains re-steered around dead engines, host-driver TX
// retry) or accounts for every victim (fate kFaulted) — the conservation
// invariant holds through every scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/panic_nic.h"
#include "fault/fault_injector.h"
#include "fault/invariants.h"
#include "net/packet.h"

namespace panic {
namespace {

const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);
constexpr std::uint16_t kAuxPort = 7777;  // routed through aux[0]
constexpr std::uint16_t kPlainPort = 80;  // default program: to the host

/// 5x5 mesh with `aux_engines` interchangeable delay engines; packets to
/// kAuxPort chain through aux[0] then the DMA engine — the detour the
/// fault tests kill, stall, degrade and corrupt.
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

/// Schedules `frames` injections on port 0, one every `gap` cycles
/// starting at cycle 1 (events fire identically in both kernel modes).
void inject_stream(Simulator& sim, core::PanicNic& nic, int frames,
                   Cycle gap, std::uint16_t dport) {
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

TEST(FaultInjection, DeadEngineResteersChainsToEquivalent) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(2);
  cfg.faults.kill("aux0", 800);  // no explicit fallback: the aux
                                 // equivalence group must resolve it
  core::PanicNic nic(cfg, sim);

  // Arrivals outpace aux0's 50-cycle service, so its queue is non-empty
  // when the death lands — the kill must produce casualties, not just
  // re-steers.
  constexpr int kFrames = 30;
  inject_stream(sim, nic, kFrames, 40, kAuxPort);
  sim.run(40000);

  auto& m = sim.telemetry().metrics();
  const std::uint64_t delivered = nic.dma().packets_to_host();
  const std::uint64_t faulted = m.counter("engine.aux0.faulted_discards");
  const std::uint64_t resteered =
      nic.rmt(0).resteered() + nic.rmt(1).resteered();

  // Every frame either reached the host or was a casualty of the death
  // itself (queued inside aux0 / already in flight toward it).
  EXPECT_EQ(delivered + faulted, static_cast<std::uint64_t>(kFrames));
  // Traffic kept flowing after the death, through the live sibling.
  EXPECT_GT(delivered, static_cast<std::uint64_t>(kFrames) / 2);
  EXPECT_GT(resteered, 0u);
  EXPECT_GT(m.counter("engine.aux1.processed"), 0u);
  EXPECT_TRUE(nic.aux(0).faulted_dead());
  EXPECT_EQ(m.counter("fault.injected"), 1u);

  EXPECT_TRUE(conservation.verify_or_log())
      << conservation.delta().to_string();
  EXPECT_GT(conservation.delta().faulted, 0);
}

TEST(FaultInjection, DeadEngineWithoutEquivalentDropsWithAttribution) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(1);  // no sibling to fail to
  cfg.faults.kill("aux0", 1500);
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 30;
  inject_stream(sim, nic, kFrames, 100, kAuxPort);
  sim.run(40000);

  auto& m = sim.telemetry().metrics();
  const std::uint64_t delivered = nic.dma().packets_to_host();
  const std::uint64_t engine_faulted =
      m.counter("engine.aux0.faulted_discards");
  const std::uint64_t rmt_faulted = m.counter("rmt.rmt0.faulted_drops") +
                                    m.counter("rmt.rmt1.faulted_drops");

  // §3.1.2: the pipeline is a legal drop point — chains that name the
  // dead engine die there, attributed, instead of wedging the NoC.
  EXPECT_GT(rmt_faulted, 0u);
  EXPECT_EQ(delivered + engine_faulted + rmt_faulted,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_LT(delivered, static_cast<std::uint64_t>(kFrames));

  EXPECT_TRUE(conservation.verify_or_log())
      << conservation.delta().to_string();
}

TEST(FaultInjection, ExplicitFallbackParsedFromTextPlan) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(2);
  const auto spec = fault::FaultSpec::parse("kill aux0 @1500 fallback=aux1");
  ASSERT_TRUE(spec.has_value());
  cfg.faults.seed = 9;
  cfg.faults.add(*spec);
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 20;
  inject_stream(sim, nic, kFrames, 100, kAuxPort);
  sim.run(30000);

  auto& m = sim.telemetry().metrics();
  EXPECT_EQ(nic.dma().packets_to_host() +
                m.counter("engine.aux0.faulted_discards"),
            static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(m.counter("engine.aux1.processed"), 0u);
  EXPECT_TRUE(conservation.verify_or_log());
}

TEST(FaultInjection, StallFreezesThenEveryMessageStillDelivers) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(1);
  cfg.faults.stall("dma", 100, 5000);  // frozen for cycles [100, 5100)
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 10;
  inject_stream(sim, nic, kFrames, 50, kPlainPort);
  sim.run(20000);

  // A stall loses nothing — it only costs time.
  EXPECT_EQ(nic.dma().packets_to_host(), static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(nic.dma().host_delivery_latency().max(), 3000u);
  EXPECT_TRUE(conservation.verify_or_log());
}

TEST(FaultInjection, DegradeStretchesServiceTimes) {
  const auto run_with_factor = [](double factor) {
    Simulator sim;
    core::PanicConfig cfg = aux_chain_config(1);
    cfg.faults.degrade("aux0", 0, factor);  // permanent, from cycle 0
    core::PanicNic nic(cfg, sim);
    inject_stream(sim, nic, 1, 100, kAuxPort);
    sim.run(20000);
    EXPECT_EQ(nic.dma().packets_to_host(), 1u);
    return nic.dma().host_delivery_latency().max();
  };

  const std::uint64_t base = run_with_factor(1.0);
  const std::uint64_t degraded = run_with_factor(10.0);
  // aux service is 50 cycles; x10 adds ~450 to the one packet's path.
  EXPECT_GE(degraded, base + 400);
}

TEST(FaultInjection, CorruptionFlipsArrivingPayloads) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(1);
  cfg.faults.corrupt("aux0", 0, 1.0);  // every arrival at aux0
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 10;
  inject_stream(sim, nic, kFrames, 100, kAuxPort);
  sim.run(20000);

  auto& m = sim.telemetry().metrics();
  EXPECT_EQ(m.counter("engine.aux0.corrupted"),
            static_cast<std::uint64_t>(kFrames));
  // Corruption mangles payloads, it does not lose messages.
  EXPECT_EQ(nic.dma().packets_to_host(), static_cast<std::uint64_t>(kFrames));
  EXPECT_TRUE(conservation.verify_or_log());
}

TEST(FaultInjection, FlakyLinkDelaysFlitsButLosesNothing) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(1);
  const auto topo = core::PanicNic::plan_topology(cfg);
  cfg.faults.flaky_link(topo.rmt_engines[0].value, /*port=*/-1, /*at=*/0,
                        /*probability=*/0.5, /*delay=*/20);
  core::PanicNic nic(cfg, sim);

  constexpr int kFrames = 20;
  inject_stream(sim, nic, kFrames, 100, kPlainPort);
  sim.run(30000);

  auto& m = sim.telemetry().metrics();
  const std::string tile = std::to_string(topo.rmt_engines[0].value);
  EXPECT_GT(m.counter("noc.router." + tile + ".flits_delayed"), 0u);
  EXPECT_EQ(nic.dma().packets_to_host(), static_cast<std::uint64_t>(kFrames));
  EXPECT_TRUE(conservation.verify_or_log());
}

TEST(FaultInjection, RandomizedFaultsAreRunToRunDeterministic) {
  const auto run_once = [] {
    Simulator sim;
    core::PanicConfig cfg = aux_chain_config(2);
    const auto topo = core::PanicNic::plan_topology(cfg);
    cfg.faults.seed = 77;
    cfg.faults.flaky_link(topo.rmt_engines[0].value, -1, 0, 0.4, 11)
        .corrupt("aux0", 0, 0.3)
        .kill("aux1", 4000);
    core::PanicNic nic(cfg, sim);
    inject_stream(sim, nic, 40, 80, kAuxPort);
    sim.run(30000);

    auto& m = sim.telemetry().metrics();
    const std::string tile = std::to_string(topo.rmt_engines[0].value);
    return std::vector<std::uint64_t>{
        nic.dma().packets_to_host(),
        m.counter("engine.aux0.corrupted"),
        m.counter("noc.router." + tile + ".flits_delayed"),
        nic.dma().host_delivery_latency().max(),
        sim.events_executed(),
    };
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultInjection, ArmFailsOnUnknownTargets) {
  {
    Simulator sim;
    fault::FaultPlan plan;
    plan.kill("no_such_engine", 10);
    fault::FaultInjector injector(plan);
    EXPECT_FALSE(injector.arm(sim));
  }
  {
    Simulator sim;
    fault::FaultPlan plan;
    plan.leak_credits(999, -1, 10, 4);
    fault::FaultInjector injector(plan);
    EXPECT_FALSE(injector.arm(sim));
  }
}

/// What building a 5x5 NIC with one aux engine under `plan` throws, or
/// empty when it builds.
std::string build_error(const fault::FaultPlan& plan) {
  Simulator sim;
  core::PanicConfig cfg = aux_chain_config(1);
  cfg.faults = plan;
  try {
    core::PanicNic nic(cfg, sim);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A plan naming a target the NIC does not have fails the build, naming the
// target, instead of arming the rest and never firing that fault.

TEST(FaultInjection, UnknownEngineFailsTheBuild) {
  fault::FaultPlan plan;
  plan.kill("nosuchengine", 100);
  EXPECT_EQ(build_error(plan),
            "fault plan names unknown engine 'nosuchengine'");
}

TEST(FaultInjection, UnknownFallbackFailsTheBuild) {
  fault::FaultPlan plan;
  plan.kill("aux0", 100, "aux7");
  EXPECT_EQ(build_error(plan),
            "fault plan names unknown fallback engine 'aux7'");
}

TEST(FaultInjection, UnknownSpareTargetFailsTheBuild) {
  fault::FaultPlan plan;
  plan.spare("aux0", "aux3", 100);
  EXPECT_EQ(build_error(plan), "fault plan names unknown spare target 'aux3'");
}

TEST(FaultInjection, UnknownRouterTileFailsTheBuild) {
  fault::FaultPlan plan;
  plan.flaky_link(25, -1, 100, 0.5, 4);  // a 5x5 mesh has tiles 0..24
  EXPECT_EQ(build_error(plan), "fault plan names unknown router tile 25");
  EXPECT_EQ(build_error(fault::FaultPlan{}.leak_credits(24, -1, 100, 1)), "");
}

// --- Host-driver TX timeout/retry (recovery on the host side). ---

TEST(FaultInjection, HealthyTxPathCompletesWithoutRetry) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg;
  cfg.mesh.k = 5;
  cfg.enable_tx_retry = true;  // attach even with no faults
  core::PanicNic nic(cfg, sim);

  const auto frame = frames::min_udp(kServer, kClient);
  sim.schedule_at(1, [&] { nic.host_driver().post_tx(frame, 0, sim.now()); });
  sim.run(30000);

  EXPECT_EQ(nic.host_driver().frames_posted(), 1u);
  EXPECT_EQ(nic.host_driver().frames_completed(), 1u);
  EXPECT_EQ(nic.host_driver().retries(), 0u);
  EXPECT_EQ(nic.host_driver().pending(), 0u);
  EXPECT_TRUE(conservation.verify_or_log());
}

TEST(FaultInjection, TxRetriesThenAbandonsWhenFetchPathIsDead) {
  fault::ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg;
  cfg.mesh.k = 5;
  cfg.faults.kill("dma", 0);  // descriptor/frame fetches die here
  cfg.host_driver.tx_timeout = 1000;
  cfg.host_driver.max_retries = 2;
  core::PanicNic nic(cfg, sim);

  const auto frame = frames::min_udp(kServer, kClient);
  sim.schedule_at(5, [&] { nic.host_driver().post_tx(frame, 0, sim.now()); });
  sim.run(20000);

  // Ring -> timeout -> re-ring (x2) -> abandon.
  EXPECT_EQ(nic.host_driver().frames_completed(), 0u);
  EXPECT_EQ(nic.host_driver().retries(), 2u);
  EXPECT_EQ(nic.host_driver().frames_failed(), 1u);
  EXPECT_EQ(nic.host_driver().pending(), 0u);
  // The fetches the dead DMA engine swallowed are attributed, not lost.
  EXPECT_TRUE(conservation.verify_or_log())
      << conservation.delta().to_string();
}

}  // namespace
}  // namespace panic
