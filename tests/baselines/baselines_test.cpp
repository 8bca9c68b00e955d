#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "baselines/manycore_nic.h"
#include "baselines/pipeline_nic.h"
#include "baselines/rmt_nic.h"
#include "engines/checksum_engine.h"
#include "engines/compression_engine.h"
#include "engines/ipsec_engine.h"
#include "fault/invariants.h"
#include "net/packet.h"
#include "noc/mesh.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

namespace panic::baselines {
namespace {

const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);

std::vector<std::uint8_t> plain_frame() {
  return frames::min_udp(kClient, kServer, 1234, 80);
}

std::vector<std::uint8_t> slow_frame(std::uint16_t port) {
  return frames::min_udp(kClient, kServer, 1234, port);
}

TEST(OffloadSpec, ServiceCyclesScaleWithSize) {
  const auto spec = ipsec_offload_spec();
  Message small, big;
  small.data.resize(64);
  big.data.resize(1500);
  EXPECT_LT(spec.service_cycles(small), spec.service_cycles(big));
  EXPECT_GE(spec.service_cycles(small), spec.fixed_cycles);
}

TEST(OffloadSpec, AppliesPredicates) {
  Message msg;
  msg.data = engines::IpsecEngine::encapsulate(plain_frame(), 1, 1);
  annotate_message(msg);
  EXPECT_TRUE(ipsec_offload_spec().applies(msg));
  msg.data = plain_frame();
  annotate_message(msg);
  EXPECT_FALSE(ipsec_offload_spec().applies(msg));
  EXPECT_TRUE(checksum_offload_spec().applies(msg));
}

// The engines' cost models are protected; a probe subclass exposes them.
template <typename EngineT>
struct CostProbe : EngineT {
  using EngineT::EngineT;
  using EngineT::service_time;
};

Message sized(std::size_t bytes) {
  Message msg;
  msg.kind = MessageKind::kPacket;
  msg.data.resize(bytes);
  return msg;
}

TEST(BaselineCosts, OffloadSpecsChargeWhatTheEnginesCharge) {
  Simulator sim;
  noc::MeshConfig mesh_cfg;
  mesh_cfg.k = 2;
  noc::Mesh mesh(mesh_cfg, sim);
  const engines::EngineConfig ecfg;
  const CostProbe<engines::IpsecEngine> ipsec(
      "ipsec", &mesh.ni(EngineId{0}), ecfg, engines::IpsecConfig{});
  const CostProbe<engines::CompressionEngine> compression(
      "compression", &mesh.ni(EngineId{1}), ecfg,
      engines::CompressionConfig{});
  const CostProbe<engines::ChecksumEngine> checksum(
      "checksum", &mesh.ni(EngineId{2}), ecfg, engines::ChecksumConfig{});
  for (const std::size_t bytes : {64u, 1500u}) {
    const Message msg = sized(bytes);
    EXPECT_EQ(ipsec_offload_spec().service_cycles(msg),
              ipsec.service_time(msg))
        << bytes;
    EXPECT_EQ(compression_offload_spec().service_cycles(msg),
              compression.service_time(msg))
        << bytes;
    EXPECT_EQ(checksum_offload_spec().service_cycles(msg),
              checksum.service_time(msg))
        << bytes;
  }
}

TEST(BaselineCosts, DmaTimeIsTheDmaEnginesWithContentionOff) {
  Simulator sim;
  noc::MeshConfig mesh_cfg;
  mesh_cfg.k = 2;
  noc::Mesh mesh(mesh_cfg, sim);
  engines::HostMemory host;
  engines::DmaConfig fast;  // bench_hol_blocking's host path
  fast.base_latency = 20;
  for (const engines::DmaConfig& cfg : {engines::DmaConfig{}, fast}) {
    const CostProbe<engines::DmaEngine> dma(
        "dma", &mesh.ni(EngineId{0}), engines::EngineConfig{}, cfg, &host);
    for (const std::size_t bytes : {64u, 1500u}) {
      EXPECT_EQ(dma_cycles(cfg, bytes), dma.service_time(sized(bytes)))
          << cfg.base_latency << " " << bytes;
    }
  }
}

TEST(PipelineNicTest, DeliversAndRecordsLatency) {
  Simulator sim;
  PipelineNic nic("pipe", {checksum_offload_spec()}, PipelineNicConfig{},
                  sim);
  deliver_frame(nic, plain_frame(), sim.now());
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 1; }, 10000));
  EXPECT_EQ(nic.host_latency().count(), 1u);
  EXPECT_EQ(nic.packets_dropped(), 0u);
}

TEST(PipelineNicTest, SlowOffloadHolBlocksUnrelatedTraffic) {
  // One packet needs the slow offload (5000 cycles); unrelated packets
  // injected right after it are stuck behind it — §2.3.1.
  Simulator sim;
  PipelineNicConfig cfg;
  PipelineNic nic("pipe", {slow_offload_spec(5000, 7777)}, cfg, sim);

  deliver_frame(nic, slow_frame(7777), sim.now());
  for (int i = 0; i < 5; ++i) {
    deliver_frame(nic, plain_frame(), sim.now());
  }
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 6; }, 100000));
  // Even the unrelated packets waited out the slow service.
  EXPECT_GT(nic.host_latency().min(), 4000u);
}

TEST(PipelineNicTest, BackpressurePropagatesNotDrops) {
  Simulator sim;
  PipelineNicConfig cfg;
  cfg.stage_queue_depth = 4;
  PipelineNic nic("pipe", {slow_offload_spec(200, 7777)}, cfg, sim);
  // Sustained slow traffic: queue fills, injector sees drops (the NIC
  // models a MAC with finite buffering).
  int accepted = 0;
  for (int i = 0; i < 50; ++i) {
    deliver_frame(nic, slow_frame(7777), sim.now());
    sim.run(10);
  }
  sim.run(100000);
  accepted = static_cast<int>(nic.packets_to_host());
  EXPECT_EQ(accepted + static_cast<int>(nic.packets_dropped()), 50);
  EXPECT_GT(nic.packets_dropped(), 0u);
}

TEST(ManycoreNicTest, OrchestrationLatencyFloor) {
  Simulator sim;
  ManycoreNicConfig cfg;
  cfg.orchestration_cycles = 5000;  // the paper's 10 us @ 500 MHz
  ManycoreNic nic("mc", {checksum_offload_spec()}, cfg, sim);

  deliver_frame(nic, plain_frame(), sim.now());
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 1; }, 100000));
  // Latency is dominated by the embedded-core orchestration overhead.
  EXPECT_GE(nic.host_latency().min(), 5000u);
}

TEST(ManycoreNicTest, CoresProcessInParallel) {
  Simulator sim;
  ManycoreNicConfig cfg;
  cfg.num_cores = 8;
  cfg.orchestration_cycles = 1000;
  ManycoreNic nic("mc", {}, cfg, sim);

  for (int i = 0; i < 8; ++i) {
    deliver_frame(nic, plain_frame(), sim.now());
  }
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 8; }, 100000));
  // 8 packets across 8 cores finish in ~one orchestration time (plus DMA
  // serialization), far below 8x serial.
  EXPECT_LT(sim.now(), 8u * 1000u / 2u);
}

TEST(ManycoreNicTest, FlowHashPinsFlows) {
  Simulator sim;
  ManycoreNicConfig cfg;
  cfg.num_cores = 4;
  cfg.dispatch = ManycoreNicConfig::Dispatch::kFlowHash;
  cfg.orchestration_cycles = 100;
  ManycoreNic nic("mc", {}, cfg, sim);
  for (int i = 0; i < 12; ++i) {
    deliver_frame(nic, plain_frame(), sim.now());  // same flow
    sim.run(1);
  }
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 12; }, 100000));
  // Same flow -> same core -> fully serialized orchestration.
  EXPECT_GE(sim.now(), 12u * 100u);
}

TEST(RmtNicTest, SimpleTrafficIsFast) {
  Simulator sim;
  RmtNic nic("rmt", {ipsec_offload_spec()}, RmtNicConfig{}, sim);
  deliver_frame(nic, plain_frame(), sim.now());
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 1; }, 10000));
  // Pipeline latency + DMA only: far below any software path.
  EXPECT_LT(nic.host_latency().max(), 500u);
  EXPECT_EQ(nic.packets_punted(), 0u);
}

TEST(RmtNicTest, HeavyOffloadTrafficPuntedToHostSoftware) {
  Simulator sim;
  RmtNicConfig cfg;
  cfg.host_software_cycles = 10000;
  RmtNic nic("rmt", {ipsec_offload_spec()}, cfg, sim);

  deliver_frame(nic, engines::IpsecEngine::encapsulate(plain_frame(), 1, 1),
                sim.now());
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 1; }, 100000));
  EXPECT_EQ(nic.packets_punted(), 1u);
  EXPECT_GE(nic.host_latency().min(), 10000u);
}

TEST(RmtNicTest, MixedTrafficSplitsByNeed) {
  Simulator sim;
  RmtNic nic("rmt", {ipsec_offload_spec()}, RmtNicConfig{}, sim);
  deliver_frame(nic, plain_frame(), sim.now());
  deliver_frame(nic, engines::IpsecEngine::encapsulate(plain_frame(), 1, 1),
                sim.now());
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 2; }, 100000));
  EXPECT_EQ(nic.packets_punted(), 1u);
}

TEST(RmtNicTest, RefusedFrameIsCreatedAndDropped) {
  // A refusal is a message with fate kDropped, as on the other baselines:
  // the conservation ledger sees it created and dropped.
  fault::ConservationChecker ledger;
  Simulator sim;
  RmtNicConfig cfg;
  cfg.queue_depth = 1;
  RmtNic nic("rmt", {}, cfg, sim);
  deliver_frame(nic, plain_frame(), sim.now());
  deliver_frame(nic, plain_frame(), sim.now());  // the queue is full
  ASSERT_TRUE(
      sim.run_until([&] { return nic.packets_to_host() == 1; }, 10000));
  EXPECT_EQ(nic.packets_dropped(), 1u);
  const auto d = ledger.delta();
  EXPECT_EQ(d.created, 2);
  EXPECT_EQ(d.delivered, 1);
  EXPECT_EQ(d.dropped, 1);
  EXPECT_TRUE(d.conserved()) << d.to_string();
}

/// One baseline as the front-door tests build it.
struct Baseline {
  const char* name;
  std::function<std::unique_ptr<NicModel>(Simulator&)> build;
};

const Baseline kBaselines[] = {
    {"pipe",
     [](Simulator& sim) -> std::unique_ptr<NicModel> {
       return std::make_unique<PipelineNic>(
           "pipe", std::vector{checksum_offload_spec()}, PipelineNicConfig{},
           sim);
     }},
    {"mc",
     [](Simulator& sim) -> std::unique_ptr<NicModel> {
       return std::make_unique<ManycoreNic>(
           "mc", std::vector{checksum_offload_spec()}, ManycoreNicConfig{},
           sim);
     }},
    {"rmt",
     [](Simulator& sim) -> std::unique_ptr<NicModel> {
       return std::make_unique<RmtNic>("rmt",
                                       std::vector{ipsec_offload_spec()},
                                       RmtNicConfig{}, sim);
     }},
};

/// `b` fed by a TrafficSource at light load (Poisson, one frame per 2000
/// cycles on average), run until long after the last frame.
telemetry::MetricsSnapshot light_load(const Baseline& b, SimMode mode) {
  Simulator sim(Frequency::megahertz(500), mode);
  const std::unique_ptr<NicModel> nic = b.build(sim);
  workload::TrafficConfig tcfg;
  tcfg.pattern = workload::ArrivalPattern::kPoisson;
  tcfg.mean_gap_cycles = 2000;
  tcfg.max_frames = 40;
  workload::TrafficSource src(
      "light", nic.get(),
      workload::make_udp_filler(kClient, kServer, 256, 80, 8), tcfg);
  sim.add(&src);
  sim.run(200000);
  return sim.snapshot();
}

TEST(BaselineFrontDoor, TrafficSourceFeedsEveryBaseline) {
  for (const Baseline& b : kBaselines) {
    SCOPED_TRACE(b.name);
    const auto event = light_load(b, SimMode::kEventDriven);
    const std::string prefix = std::string("baseline.") + b.name + ".";
    EXPECT_EQ(event.counter("workload.light.generated"), 40u);
    EXPECT_EQ(event.counter(prefix + "delivered"),
              event.counter("workload.light.generated"));
    EXPECT_EQ(event.counter(prefix + "dropped"), 0u);
    const auto diffs = event.diff_names(
        light_load(b, SimMode::kStrictTick), [](const std::string& name) {
          return name.rfind("kernel.", 0) == 0;
        });
    EXPECT_TRUE(diffs.empty()) << diffs.size() << " metrics differ, first: "
                               << diffs.front();
  }
}

}  // namespace
}  // namespace panic::baselines
