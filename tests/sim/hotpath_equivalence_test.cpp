// Saturated-traffic equivalence: every paper-facing stat of a congested
// full-NIC run is pinned to golden values.  The pins were first captured
// before the message pool / ring-queue / flit-burst hot path landed (PR 2,
// commit d36886f) and re-captured once when mesh links moved to registered
// credit-based flow control: under credit gating a
// router stalls one cycle earlier than under live occupancy checks when the
// downstream buffer is full, shifting two stats by a handful of units
// (flits 379016 -> 379013, stalls 4965 -> 4968) while delivery, drops and
// every latency percentile stayed identical.
//
// The scenario is deterministic (seeded sources, no wall-clock input), so
// the values are exact across machines; any drift means the zero-allocation
// machinery changed observable behaviour, which it must never do.  Both
// kernel modes are pinned — strict-tick and event-driven — and each is run
// twice: once with fillers that assign each frame an allocating
// FrameFactory builds (how the kvs and esp kinds fill a pooled buffer) and
// once with the prototype-caching UDP fillers, which must be
// indistinguishable.
#include <gtest/gtest.h>

#include <ostream>

#include "core/panic_nic.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

namespace panic {
namespace {

struct Golden {
  std::uint64_t delivered = 552;
  std::uint64_t flits = 379013;
  std::uint64_t generated = 6668;
  std::uint64_t rmt_passes = 3859;
  std::uint64_t dma_q_drops = 194;
  std::uint64_t dma_q_maxdepth = 256;
  double stalls = 4968;
  double ni_msgs = 5416;
  std::uint64_t lat_count = 552;
  std::uint64_t lat_p50 = 19712;
  std::uint64_t lat_p99 = 46592;
  std::uint64_t lat_max = 47386;
  double lat_mean = 21274.663043478260;
  std::uint64_t t1_count = 388, t1_p50 = 16000, t1_p99 = 41472,
                t1_max = 42378;
  std::uint64_t t2_count = 164, t2_p50 = 33280, t2_p99 = 47386,
                t2_max = 47386;
};

/// A filler that assigns each frame `factory` builds.
workload::FrameFiller assigning(workload::FrameFactory factory) {
  return [factory = std::move(factory)](Rng& rng, std::uint64_t seq,
                                        std::vector<std::uint8_t>& out) {
    out = factory(rng, seq);
  };
}

struct HotpathCase {
  SimMode mode;
  bool use_filler;
};

// The case's label, which ctest puts in the test name.
void PrintTo(const HotpathCase& c, std::ostream* os) {
  *os << (c.mode == SimMode::kStrictTick ? "StrictTick" : "EventDriven")
      << (c.use_filler ? "Filler" : "Factory");
}

class HotpathEquivalence : public ::testing::TestWithParam<HotpathCase> {};

TEST_P(HotpathEquivalence, SaturatedStatsMatchPrePoolGolden) {
  const auto [mode, use_filler] = GetParam();

  Simulator sim(Frequency::megahertz(500), mode);
  core::PanicConfig cfg;
  cfg.mesh.k = 4;
  cfg.tenant_slacks = {{1, 10}, {2, 100000}};
  core::PanicNic nic(cfg, sim);

  workload::TrafficConfig bulk_cfg;
  bulk_cfg.pattern = workload::ArrivalPattern::kOnOff;
  bulk_cfg.mean_gap_cycles = 15.0;
  bulk_cfg.on_cycles = 50000;
  bulk_cfg.off_cycles = 0;
  bulk_cfg.tenant = TenantId{2};
  bulk_cfg.seed = 99;
  const Ipv4Addr bulk_src(10, 2, 0, 9), dst(10, 0, 0, 1);
  const Ipv4Addr inter_src(10, 1, 0, 2);

  workload::TrafficConfig inter_cfg = bulk_cfg;
  inter_cfg.tenant = TenantId{1};
  inter_cfg.seed = 7;

  workload::TrafficSource bulk(
      "bulk", &nic.eth_port(1),
      use_filler ? workload::make_udp_filler(bulk_src, dst, 1500)
                 : assigning(workload::make_udp_factory(bulk_src, dst, 1500)),
      bulk_cfg);
  workload::TrafficSource inter(
      "interactive", &nic.eth_port(0),
      use_filler ? workload::make_min_frame_filler(inter_src, dst)
                 : assigning(workload::make_min_frame_factory(inter_src, dst)),
      inter_cfg);
  sim.add(&bulk);
  sim.add(&inter);

  sim.run(50000);
  const auto snap = sim.snapshot();
  const Golden g;

  EXPECT_EQ(snap.counter("engine.dma.packets_to_host"), g.delivered);
  EXPECT_EQ(snap.value("noc.flits_routed"), g.flits);
  EXPECT_EQ(snap.sum("workload.", ".generated"),
            static_cast<double>(g.generated));
  EXPECT_EQ(snap.value("nic.rmt_passes"), g.rmt_passes);
  EXPECT_EQ(snap.counter("engine.dma.queue.dropped"), g.dma_q_drops);
  EXPECT_EQ(snap.counter("engine.dma.queue.max_depth"), g.dma_q_maxdepth);
  EXPECT_EQ(snap.sum("noc.router.", ".stall_cycles"), g.stalls);
  EXPECT_EQ(snap.sum("noc.ni.", ".messages_sent"), g.ni_msgs);

  const auto& lat = snap.at("engine.dma.host_latency");
  EXPECT_EQ(lat.count, g.lat_count);
  EXPECT_EQ(lat.p50, g.lat_p50);
  EXPECT_EQ(lat.p99, g.lat_p99);
  EXPECT_EQ(lat.max, g.lat_max);
  EXPECT_NEAR(lat.mean, g.lat_mean, 1e-6);

  const auto& t1 = snap.at("engine.dma.host_latency.tenant.1");
  EXPECT_EQ(t1.count, g.t1_count);
  EXPECT_EQ(t1.p50, g.t1_p50);
  EXPECT_EQ(t1.p99, g.t1_p99);
  EXPECT_EQ(t1.max, g.t1_max);

  const auto& t2 = snap.at("engine.dma.host_latency.tenant.2");
  EXPECT_EQ(t2.count, g.t2_count);
  EXPECT_EQ(t2.p50, g.t2_p50);
  EXPECT_EQ(t2.p99, g.t2_p99);
  EXPECT_EQ(t2.max, g.t2_max);

  // Nothing leaves on the wire in this scenario: all traffic is host-bound.
  EXPECT_EQ(snap.value("engine.eth0.tx_packets"), 0u);
  EXPECT_EQ(snap.value("engine.eth1.tx_packets"), 0u);

  // Growth telemetry from the satellite: the congested eth1 staging queue
  // must be visible in the snapshot with a nonzero high watermark.
  EXPECT_GT(snap.value("engine.eth1.staging_high_watermark"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HotpathEquivalence,
    ::testing::Values(HotpathCase{SimMode::kStrictTick, false},
                      HotpathCase{SimMode::kStrictTick, true},
                      HotpathCase{SimMode::kEventDriven, false},
                      HotpathCase{SimMode::kEventDriven, true}));

}  // namespace
}  // namespace panic
