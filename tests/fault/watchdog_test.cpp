// Watchdog: busy-with-no-progress detection.  Unit tests drive synthetic
// probes; the integration test wedges a mesh port with a credit leak and
// checks the stall is flagged on a live PANIC NIC.
#include "fault/watchdog.h"

#include <gtest/gtest.h>

#include "core/panic_nic.h"
#include "fault/invariants.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace panic::fault {
namespace {

WatchdogConfig fast_config() {
  WatchdogConfig cfg;
  cfg.period = 10;
  cfg.threshold = 50;
  return cfg;
}

TEST(Watchdog, FlagsBusyProbeWithFrozenProgress) {
  Simulator sim;
  Watchdog wd(fast_config());
  std::uint64_t progress = 0;
  bool busy = true;
  wd.add_probe("victim", [&] { return progress; }, [&] { return busy; });
  sim.add(&wd);

  sim.run(40);  // busy but under threshold: suspected, not yet flagged
  EXPECT_EQ(wd.flags_raised(), 0u);

  sim.run(60);  // over threshold
  EXPECT_EQ(wd.flags_raised(), 1u);
  ASSERT_EQ(wd.stuck().size(), 1u);
  EXPECT_EQ(wd.stuck()[0], "victim");

  // Progress clears the flag (and is counted as a recovery).
  ++progress;
  sim.run(20);
  EXPECT_TRUE(wd.stuck().empty());
}

TEST(Watchdog, IdleProbeIsNeverFlagged) {
  Simulator sim;
  Watchdog wd(fast_config());
  std::uint64_t progress = 0;
  wd.add_probe("idle", [&] { return progress; }, [] { return false; });
  sim.add(&wd);
  sim.run(500);
  EXPECT_EQ(wd.flags_raised(), 0u);
  EXPECT_TRUE(wd.stuck().empty());
}

TEST(Watchdog, ProgressingProbeIsNeverFlagged) {
  Simulator sim;
  Watchdog wd(fast_config());
  // Busy forever, but the work counter moves between checks.
  wd.add_probe("worker", [&] { return static_cast<std::uint64_t>(sim.now()); },
               [] { return true; });
  sim.add(&wd);
  sim.run(500);
  EXPECT_EQ(wd.flags_raised(), 0u);
}

TEST(Watchdog, IntermittentBusyRestartsTheClock) {
  Simulator sim;
  Watchdog wd(fast_config());
  std::uint64_t progress = 0;
  bool busy = false;
  wd.add_probe("bursty", [&] { return progress; }, [&] { return busy; });
  sim.add(&wd);

  // Busy for less than the threshold, then idle: suspicion must reset.
  sim.schedule_at(10, [&] { busy = true; });
  sim.schedule_at(40, [&] { busy = false; });
  sim.schedule_at(100, [&] { busy = true; });
  sim.run(140);  // busy again for 40 cycles — still under threshold
  EXPECT_EQ(wd.flags_raised(), 0u);

  sim.run(60);  // now continuously busy past the threshold
  EXPECT_EQ(wd.flags_raised(), 1u);
}

TEST(Watchdog, ChecksAreIdenticalInBothKernelModes) {
  const auto run_mode = [](SimMode mode) {
    Simulator sim(Frequency::megahertz(500), mode);
    Watchdog wd(fast_config());
    std::uint64_t progress = 0;
    bool busy = true;
    wd.add_probe("victim", [&] { return progress; }, [&] { return busy; });
    sim.add(&wd);
    sim.run(1000);
    return std::pair<std::uint64_t, std::uint64_t>{wd.checks(),
                                                   wd.flags_raised()};
  };
  EXPECT_EQ(run_mode(SimMode::kStrictTick), run_mode(SimMode::kEventDriven));
}

TEST(Watchdog, CreditLeakWedgesMeshPortAndIsDetected) {
  ConservationChecker conservation;
  Simulator sim;
  core::PanicConfig cfg;
  cfg.mesh.k = 4;
  // Leak more credits than any input FIFO holds on every port of the DMA
  // engine's tile: nothing can reach the host engine from cycle 500 on.
  const auto topo = core::PanicNic::plan_topology(cfg);
  cfg.faults.leak_credits(topo.dma.value, /*port=*/-1, /*at=*/500,
                          /*amount=*/1000);
  cfg.watchdog.period = 64;
  cfg.watchdog.threshold = 256;
  core::PanicNic nic(cfg, sim);

  const Ipv4Addr client(10, 1, 0, 2), server(10, 0, 0, 1);
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(1 + static_cast<Cycle>(i) * 50, [&sim, &nic, client,
                                                     server, i] {
      deliver_frame(nic.eth_port(0),
                    frames::min_udp(client, server,
                                    static_cast<std::uint16_t>(40000 + i)),
                    sim.now());
    });
  }
  sim.run(20000);

  ASSERT_NE(nic.watchdog(), nullptr);
  EXPECT_GT(nic.watchdog()->flags_raised(), 0u);
  EXPECT_FALSE(nic.watchdog()->stuck().empty());
  // The wedge starves the host: traffic injected after cycle 500 is stuck
  // in the NoC (live) or dropped at full queues — never silently lost.
  EXPECT_LT(nic.dma().packets_to_host(), 20u);
  EXPECT_TRUE(conservation.verify_or_log())
      << conservation.delta().to_string();
}

}  // namespace
}  // namespace panic::fault
