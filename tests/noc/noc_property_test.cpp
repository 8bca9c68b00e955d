// Parameterized property sweeps over the NoC configuration space: the
// lossless and minimal-routing invariants must hold for every mesh size,
// channel width and message size.
#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.h"
#include "noc/mesh.h"
#include "sim/simulator.h"

namespace panic::noc {
namespace {

struct NocCase {
  int k;
  std::uint32_t width;
  std::size_t payload;
  RoutingAlgo routing = RoutingAlgo::kXY;
};

// The case's label, which ctest puts in the test name.
void PrintTo(const NocCase& c, std::ostream* os) {
  *os << "k" << c.k << "_w" << c.width << "_b" << c.payload
      << (c.routing == RoutingAlgo::kWestFirst ? "_wf" : "_xy");
}

class NocSweep : public ::testing::TestWithParam<NocCase> {};

// Property: conservation — every message injected under sustained random
// traffic is eventually delivered, exactly once, to the right tile.
TEST_P(NocSweep, ConservationAndCorrectDelivery) {
  const auto& param = GetParam();
  Simulator sim;
  MeshConfig cfg;
  cfg.k = param.k;
  cfg.channel_bits = param.width;
  cfg.routing = param.routing;
  Mesh mesh(cfg, sim);
  Rng rng(static_cast<std::uint64_t>(param.k) * 1000 + param.width);

  const int kMessages = 150;
  int injected = 0;
  std::uint64_t delivered = 0;
  bool misdelivered = false;

  const bool done = sim.run_until(
      [&] {
        for (int t = 0; t < mesh.tiles() && injected < kMessages; ++t) {
          const EngineId src{static_cast<std::uint16_t>(t)};
          if (!mesh.ni(src).can_inject()) continue;
          const EngineId dst{static_cast<std::uint16_t>(rng.uniform_int(
              0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
          auto msg = make_message();
          msg->data.resize(param.payload);
          // Stamp the intended destination for the delivery check.
          msg->dma_addr = dst.value;
          mesh.ni(src).inject(std::move(msg), dst, sim.now());
          ++injected;
        }
        for (int t = 0; t < mesh.tiles(); ++t) {
          const EngineId tile{static_cast<std::uint16_t>(t)};
          while (auto msg = mesh.ni(tile).try_receive(sim.now())) {
            ++delivered;
            if (msg->dma_addr != tile.value) misdelivered = true;
          }
        }
        return injected == kMessages && delivered == kMessages;
      },
      500000);

  EXPECT_TRUE(done) << "injected=" << injected
                    << " delivered=" << delivered;
  EXPECT_FALSE(misdelivered);
}

// Property: latency of an unloaded message is bounded by
// distance + serialization + constant NI overhead.
TEST_P(NocSweep, UnloadedLatencyBound) {
  const auto& param = GetParam();
  Simulator sim;
  MeshConfig cfg;
  cfg.k = param.k;
  cfg.channel_bits = param.width;
  cfg.routing = param.routing;
  Mesh mesh(cfg, sim);

  const EngineId src = mesh.tile_id(0, 0);
  const EngineId dst = mesh.tile_id(param.k - 1, param.k - 1);
  auto msg = make_message();
  msg->data.resize(param.payload);
  const auto flits = flits_for(msg->wire_size(), param.width);
  mesh.ni(src).inject(std::move(msg), dst, sim.now());

  const bool done = sim.run_until(
      [&] { return mesh.ni(dst).try_receive(sim.now()) != nullptr; },
      100000);
  ASSERT_TRUE(done);
  const auto dist = static_cast<Cycles>(mesh.distance(src, dst));
  EXPECT_GE(sim.now(), dist + flits - 1);
  EXPECT_LE(sim.now(), dist + flits + 10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NocSweep,
    ::testing::Values(NocCase{2, 64, 64}, NocCase{3, 64, 64},
                      NocCase{4, 64, 16}, NocCase{4, 128, 64},
                      NocCase{4, 128, 1500}, NocCase{5, 256, 256},
                      NocCase{6, 64, 64}, NocCase{8, 128, 64},
                      NocCase{8, 512, 1500},
                      // West-first adaptive routing: the same invariants
                      // (losslessness, minimality) must hold.
                      NocCase{4, 128, 64, RoutingAlgo::kWestFirst},
                      NocCase{6, 64, 64, RoutingAlgo::kWestFirst},
                      NocCase{8, 128, 1500, RoutingAlgo::kWestFirst}));

// Under adversarial "transpose" traffic ((x,y) -> (y,x)), XY concentrates
// load while west-first can spread east-bound packets over multiple
// paths: adaptive throughput must be at least comparable (>= 90% of XY)
// and typically better.
TEST(WestFirst, TransposeTrafficThroughput) {
  auto measure = [](RoutingAlgo algo) {
    Simulator sim;
    MeshConfig cfg;
    cfg.k = 6;
    cfg.channel_bits = 64;
    cfg.routing = algo;
    Mesh mesh(cfg, sim);
    std::uint64_t delivered = 0;
    const Cycles warmup = 2000, window = 10000;
    for (Cycles c = 0; c < warmup + window; ++c) {
      for (int y = 0; y < cfg.k; ++y) {
        for (int x = 0; x < cfg.k; ++x) {
          if (x == y) continue;
          const EngineId src = mesh.tile_id(x, y);
          const EngineId dst = mesh.tile_id(y, x);
          if (mesh.ni(src).can_inject()) {
            auto msg = make_message();
            msg->data.resize(64);
            mesh.ni(src).inject(std::move(msg), dst, sim.now());
          }
          while (mesh.ni(src).try_receive(sim.now()) != nullptr) {
            if (c >= warmup) ++delivered;
          }
        }
      }
      sim.step();
    }
    return delivered;
  };
  const auto xy = measure(RoutingAlgo::kXY);
  const auto wf = measure(RoutingAlgo::kWestFirst);
  EXPECT_GT(wf, xy * 9 / 10) << "xy=" << xy << " wf=" << wf;
}

}  // namespace
}  // namespace panic::noc
