#include <gtest/gtest.h>

#include "core/panic_nic.h"
#include "net/packet.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

namespace panic::workload {
namespace {

const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);

struct PortFixture {
  PortFixture() : sim(), nic(make_config(), sim) {}
  static core::PanicConfig make_config() {
    core::PanicConfig cfg;
    cfg.mesh.k = 4;
    return cfg;
  }
  Simulator sim;
  core::PanicNic nic;
};

TEST(TrafficSource, ConstantRateGeneratesExpectedCount) {
  PortFixture f;
  TrafficConfig cfg;
  cfg.mean_gap_cycles = 10.0;
  TrafficSource src("gen", &f.nic.eth_port(0),
                    make_min_frame_filler(kClient, kServer), cfg);
  f.sim.add(&src);
  f.sim.run(1000);
  EXPECT_NEAR(static_cast<double>(src.generated()), 100.0, 2.0);
}

TEST(TrafficSource, MaxFramesStops) {
  PortFixture f;
  TrafficConfig cfg;
  cfg.mean_gap_cycles = 5.0;
  cfg.max_frames = 7;
  TrafficSource src("gen", &f.nic.eth_port(0),
                    make_min_frame_filler(kClient, kServer), cfg);
  f.sim.add(&src);
  f.sim.run(1000);
  EXPECT_EQ(src.generated(), 7u);
  EXPECT_TRUE(src.done());
}

TEST(TrafficSource, PoissonMeanRateCorrect) {
  PortFixture f;
  TrafficConfig cfg;
  cfg.pattern = ArrivalPattern::kPoisson;
  cfg.mean_gap_cycles = 20.0;
  cfg.seed = 7;
  TrafficSource src("gen", &f.nic.eth_port(0),
                    make_min_frame_filler(kClient, kServer), cfg);
  f.sim.add(&src);
  f.sim.run(100000);
  EXPECT_NEAR(static_cast<double>(src.generated()), 5000.0, 300.0);
}

TEST(TrafficSource, OnOffBursts) {
  PortFixture f;
  TrafficConfig cfg;
  cfg.pattern = ArrivalPattern::kOnOff;
  cfg.mean_gap_cycles = 1.0;
  cfg.on_cycles = 100;
  cfg.off_cycles = 900;
  TrafficSource src("gen", &f.nic.eth_port(0),
                    make_min_frame_filler(kClient, kServer), cfg);
  f.sim.add(&src);
  f.sim.run(10000);
  // ~10% duty cycle at 1 frame/cycle.
  EXPECT_NEAR(static_cast<double>(src.generated()), 1000.0, 150.0);
}

TEST(KvsFactory, ProducesRequestedMix) {
  KvsWorkloadConfig cfg;
  cfg.get_fraction = 0.7;
  cfg.num_keys = 50;
  auto factory = make_kvs_factory(cfg);
  Rng rng(3);
  int gets = 0, sets = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const auto frame = factory(rng, i);
    const auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->kvs.has_value());
    EXPECT_LT(parsed->kvs->key, 50u);
    if (parsed->kvs->op == KvsOp::kGet) {
      ++gets;
    } else {
      ++sets;
    }
  }
  EXPECT_NEAR(gets / 2000.0, 0.7, 0.05);
}

TEST(KvsFactory, ZipfSkewConcentratesKeys) {
  KvsWorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.zipf_skew = 0.99;
  auto factory = make_kvs_factory(cfg);
  Rng rng(5);
  std::uint64_t hot = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto frame = factory(rng, static_cast<std::uint64_t>(i));
    const auto parsed = parse_frame(frame);
    if (parsed->kvs->key < 10) ++hot;
  }
  EXPECT_GT(static_cast<double>(hot) / n, 0.2);  // top-1% takes >20%
}

TEST(KvsFactory, WanFractionEncrypts) {
  KvsWorkloadConfig cfg;
  cfg.wan_fraction = 0.5;
  auto factory = make_kvs_factory(cfg);
  Rng rng(11);
  int esp = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const auto frame = factory(rng, static_cast<std::uint64_t>(i));
    const auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    if (parsed->esp.has_value()) ++esp;
  }
  EXPECT_NEAR(esp / static_cast<double>(n), 0.5, 0.07);
}

TEST(UdpFactory, ProducesRequestedSize) {
  auto factory = make_udp_factory(kClient, kServer, 512);
  Rng rng(1);
  const auto frame = factory(rng, 0);
  EXPECT_EQ(frame.size(), 512u);
  EXPECT_TRUE(parse_frame(frame).has_value());
}

TEST(UdpFiller, MatchesFactoryForEverySeq) {
  // Sources run the fillers and perfbench the factories: each seq must
  // give the same bytes, through every source port and into a recycled
  // buffer of another size.
  struct Input {
    FrameFactory factory;
    FrameFiller filler;
    std::uint32_t flows;
  };
  const Input inputs[] = {
      {make_udp_factory(kClient, kServer, 300, 7, 5),
       make_udp_filler(kClient, kServer, 300, 7, 5), 5},
      {make_min_frame_factory(kClient, kServer, 5),
       make_min_frame_filler(kClient, kServer, 5), 5},
      // offload_mix's bulk line.
      {make_udp_factory(kClient, kServer, 1500, 5001, 1024),
       make_udp_filler(kClient, kServer, 1500, 5001, 1024), 1024},
  };
  Rng rng(1);
  std::vector<std::uint8_t> out(2000, 0xAA);
  for (const auto& [factory, filler, flows] : inputs) {
    for (std::uint64_t seq = 0; seq < 3 * flows; ++seq) {
      filler(rng, seq, out);
      EXPECT_EQ(out, factory(rng, seq)) << "seq " << seq;
    }
  }
}

TEST(Integration, SourceDrivesNicToHost) {
  PortFixture f;
  TrafficConfig cfg;
  cfg.mean_gap_cycles = 100.0;
  cfg.max_frames = 20;
  TrafficSource src("gen", &f.nic.eth_port(0),
                    make_min_frame_filler(kClient, kServer), cfg);
  f.sim.add(&src);
  ASSERT_TRUE(f.sim.run_until(
      [&] { return f.nic.dma().packets_to_host() == 20; }, 200000));
  EXPECT_EQ(f.nic.eth_port(0).rx_meter().packets(), 20u);
}

}  // namespace
}  // namespace panic::workload
