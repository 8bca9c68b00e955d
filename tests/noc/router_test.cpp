#include "noc/router.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "noc/mesh.h"
#include "sim/simulator.h"

namespace panic::noc {
namespace {

MessagePtr packet_of_size(std::size_t bytes) {
  auto msg = make_message();
  msg->data.resize(bytes);
  return msg;
}

struct MeshFixture {
  static constexpr int kShards = 2;

  MeshFixture(int k, std::uint32_t bits,
              SimMode mode = SimMode::kEventDriven)
      : sim(Frequency::megahertz(500), mode, kShards),
        mesh(make_config(k, bits), sim) {
    // Column bands for kParallelShards (a no-op otherwise), so the links
    // between columns cross shards.
    std::vector<int> shard;
    for (int t = 0; t < k * k; ++t) shard.push_back(t % k % kShards);
    mesh.assign_shards(shard, sim);
  }
  static MeshConfig make_config(int k, std::uint32_t bits) {
    MeshConfig c;
    c.k = k;
    c.channel_bits = bits;
    return c;
  }
  Simulator sim;
  Mesh mesh;
};

TEST(Router, DirectionNames) {
  EXPECT_STREQ(to_string(Direction::kNorth), "N");
  EXPECT_STREQ(to_string(Direction::kLocal), "L");
}

TEST(Router, SingleMessageCornerToCorner) {
  MeshFixture f(3, 64);
  const EngineId src = f.mesh.tile_id(0, 0);
  const EngineId dst = f.mesh.tile_id(2, 2);
  EXPECT_EQ(f.mesh.distance(src, dst), 4);

  auto msg = packet_of_size(64);
  const MessageId id = msg->id;
  f.mesh.ni(src).inject(std::move(msg), dst, f.sim.now());

  MessagePtr got;
  const bool done = f.sim.run_until(
      [&] {
        got = f.mesh.ni(dst).try_receive(f.sim.now());
        return got != nullptr;
      },
      1000);
  ASSERT_TRUE(done);
  EXPECT_EQ(got->id, id);

  // Tail-flit latency: ~distance router hops + serialization (10 flits for
  // 64B+chain+NoC header on 64-bit links) + NI staging.
  const auto flits = flits_for(got->wire_size(), 64);
  EXPECT_GE(f.sim.now(), static_cast<Cycle>(4 + flits - 1));
  EXPECT_LE(f.sim.now(), static_cast<Cycle>(4 + flits + 8));
}

TEST(Router, LatencyScalesWithDistance) {
  // One hop per cycle (§3.1.2): delivering to a farther tile takes
  // proportionally more cycles.
  auto latency_to = [](int x, int y) {
    MeshFixture f(5, 512);
    const EngineId src = f.mesh.tile_id(0, 0);
    const EngineId dst = f.mesh.tile_id(x, y);
    f.mesh.ni(src).inject(packet_of_size(16), dst, 0);
    f.sim.run_until(
        [&] { return f.mesh.ni(dst).try_receive(f.sim.now()) != nullptr; },
        1000);
    return f.sim.now();
  };
  const Cycle near = latency_to(1, 0);
  const Cycle mid = latency_to(2, 2);
  const Cycle far = latency_to(4, 4);
  EXPECT_LT(near, mid);
  EXPECT_LT(mid, far);
  // Far minus near should be ~ the 7 extra hops.
  EXPECT_NEAR(static_cast<double>(far - near), 7.0, 2.0);
}

TEST(Router, MessageToSelfDelivered) {
  MeshFixture f(3, 64);
  const EngineId tile = f.mesh.tile_id(1, 1);
  f.mesh.ni(tile).inject(packet_of_size(32), tile, 0);
  const bool done = f.sim.run_until(
      [&] { return f.mesh.ni(tile).try_receive(f.sim.now()) != nullptr; },
      200);
  EXPECT_TRUE(done);
}

TEST(Router, WiderChannelsFewerFlits) {
  EXPECT_GT(flits_for(64, 64), flits_for(64, 128));
  EXPECT_EQ(flits_for(0, 64), 1u);  // header-only message still needs a flit
  // 64B payload on 64-bit links: (512 + 64) / 64 = 9 flits.
  EXPECT_EQ(flits_for(64, 64), 9u);
  EXPECT_EQ(flits_for(64, 128), 5u);
}

TEST(Router, BackToBackMessagesAllDelivered) {
  MeshFixture f(4, 128);
  const EngineId src = f.mesh.tile_id(0, 0);
  const EngineId dst = f.mesh.tile_id(3, 3);
  int received = 0;
  int injected = 0;
  const int total = 50;
  f.sim.run_until(
      [&] {
        if (injected < total && f.mesh.ni(src).can_inject()) {
          f.mesh.ni(src).inject(packet_of_size(64), dst, f.sim.now());
          ++injected;
        }
        while (f.mesh.ni(dst).try_receive(f.sim.now()) != nullptr) {
          ++received;
        }
        return received == total;
      },
      100000);
  EXPECT_EQ(received, total);
  EXPECT_EQ(f.mesh.ni(src).messages_sent(), static_cast<std::uint64_t>(total));
}

TEST(Router, CountersAdvance) {
  MeshFixture f(3, 64);
  const EngineId src = f.mesh.tile_id(0, 0);
  const EngineId dst = f.mesh.tile_id(2, 0);
  f.mesh.ni(src).inject(packet_of_size(64), dst, 0);
  f.sim.run_until(
      [&] { return f.mesh.ni(dst).try_receive(f.sim.now()) != nullptr; },
      1000);
  EXPECT_GT(f.mesh.total_flits_routed(), 0u);
  EXPECT_GT(f.mesh.ni(src).flits_sent(), 0u);
}

// --- Registered credits: what the end-of-cycle flush must preserve. ---

constexpr std::uint32_t kDepth = 8;  // MeshConfig::buffer_flits
constexpr SimMode kCreditModes[] = {SimMode::kStrictTick,
                                    SimMode::kEventDriven,
                                    SimMode::kParallelShards};

/// Runs `read` inside every cycle's tick phase: registered after the
/// mesh, it ticks after every router but before the end-of-cycle credit
/// flush.  The event kernel carries these streams as wormhole trains, whose
/// held links spend and return credits only at cycle boundaries, so its
/// leg compares the cycle-boundary sequence with the dense leg's instead.
class MidCycleProbe : public Component {
 public:
  explicit MidCycleProbe(std::function<void()> read)
      : Component("probe"), read_(std::move(read)) {}
  void tick(Cycle) override { read_(); }

 private:
  std::function<void()> read_;
};

TEST(RouterCredits, PopReturnsCreditExactlyOneCycleLater) {
  // One long message over the link between tiles 0 and 1, in both
  // directions: the downstream router ticks after the upstream one
  // (0 -> 1) or before it (1 -> 0).  Either way the credit a pop frees is
  // not visible in the pop's cycle, and is after its end-of-cycle flush.
  std::vector<std::uint32_t> dense_credits[2];  // per step, [eastward]
  for (const SimMode mode : kCreditModes) {
    const bool event = mode == SimMode::kEventDriven;
    for (const bool eastward : {true, false}) {
      MeshFixture f(2, 64, mode);
      const EngineId src = f.mesh.tile_id(eastward ? 0 : 1, 0);
      const EngineId dst = f.mesh.tile_id(eastward ? 1 : 0, 0);
      const Direction out = eastward ? Direction::kEast : Direction::kWest;
      Router& up = f.mesh.router(src);
      Router& down = f.mesh.router(dst);
      std::uint32_t mid = 0;
      MidCycleProbe probe([&] { mid = up.credits(out); });
      f.sim.add(&probe);
      f.mesh.ni(src).inject(packet_of_size(512), dst, 0);

      std::uint32_t before = kDepth;
      std::uint64_t forwarded = 0, popped = 0;
      bool credit_spent = false;
      std::vector<std::uint32_t> credits;
      for (int c = 0; c < 200; ++c) {
        f.sim.step();
        const auto fwd = up.flits_routed() - forwarded;
        const auto pops = down.flits_routed() - popped;
        forwarded += fwd;
        popped += pops;
        credits.push_back(up.credits(out));
        if (!event) {
          // Only the upstream's own forwards (one each) move it mid-cycle.
          ASSERT_EQ(mid, before - fwd) << to_string(mode) << " cycle " << c;
          ASSERT_EQ(up.credits(out), mid + pops)
              << to_string(mode) << " cycle " << c;
        }
        before = up.credits(out);
        credit_spent = credit_spent || before < kDepth;
      }
      EXPECT_TRUE(credit_spent);
      if (mode == SimMode::kStrictTick) dense_credits[eastward] = credits;
      if (event) {
        EXPECT_EQ(credits, dense_credits[eastward]);
        EXPECT_GT(f.sim.snapshot().counter("kernel.noc.trains"), 0u);
      }
      EXPECT_GT(popped, 60u);
      EXPECT_EQ(popped, forwarded);
      EXPECT_EQ(up.credits(out), kDepth);
    }
  }
}

TEST(RouterCredits, UpstreamGetsReturnsOfTwoDownstreamPopsInOneCycle) {
  // Router (1,1) forwards west->east and north->south streams; its east
  // and south neighbors pop them, often in the same cycle, and each
  // stages a return on it (in the parallel kernel from two shards).
  std::vector<std::uint32_t> dense_credits;  // east, south per step
  for (const SimMode mode : kCreditModes) {
    const bool event = mode == SimMode::kEventDriven;
    MeshFixture f(3, 64, mode);
    Router& up = f.mesh.router(f.mesh.tile_id(1, 1));
    Router& east = f.mesh.router(f.mesh.tile_id(2, 1));
    Router& south = f.mesh.router(f.mesh.tile_id(1, 2));
    std::uint32_t mid_east = 0, mid_south = 0;
    MidCycleProbe probe([&] {
      mid_east = up.credits(Direction::kEast);
      mid_south = up.credits(Direction::kSouth);
    });
    f.sim.add(&probe);
    f.mesh.ni(f.mesh.tile_id(0, 1))
        .inject(packet_of_size(512), f.mesh.tile_id(2, 1), 0);
    f.mesh.ni(f.mesh.tile_id(1, 0))
        .inject(packet_of_size(512), f.mesh.tile_id(1, 2), 0);

    std::uint64_t east_pops = 0, south_pops = 0;
    int both = 0;
    std::vector<std::uint32_t> credits;
    for (int c = 0; c < 300; ++c) {
      f.sim.step();
      const auto e = east.flits_routed() - east_pops;
      const auto s = south.flits_routed() - south_pops;
      east_pops += e;
      south_pops += s;
      credits.push_back(up.credits(Direction::kEast));
      credits.push_back(up.credits(Direction::kSouth));
      if (!event) {
        ASSERT_EQ(up.credits(Direction::kEast), mid_east + e)
            << to_string(mode) << " cycle " << c;
        ASSERT_EQ(up.credits(Direction::kSouth), mid_south + s)
            << to_string(mode) << " cycle " << c;
      }
      if (e == 1 && s == 1) ++both;
    }
    EXPECT_GT(both, 10) << to_string(mode);
    if (mode == SimMode::kStrictTick) dense_credits = credits;
    if (event) {
      EXPECT_EQ(credits, dense_credits);
      EXPECT_GT(f.sim.snapshot().counter("kernel.noc.trains"), 0u);
    }
    EXPECT_EQ(up.credits(Direction::kEast), kDepth);
    EXPECT_EQ(up.credits(Direction::kSouth), kDepth);
  }
}

TEST(RouterCredits, LeakDebtStillSwallowsStagedReturns) {
  // Router (1,0) ejects a message from (1,1) while one from (0,0) waits
  // behind it, so (0,0)'s east credits run low.  Leaking one credit more
  // than (0,0) holds leaves one credit of debt, which a later staged
  // return repays: the link ends `held + 1` credits short, not `held`.
  for (const SimMode mode : kCreditModes) {
    MeshFixture f(2, 64, mode);
    const EngineId dst = f.mesh.tile_id(1, 0);
    Router& up = f.mesh.router(f.mesh.tile_id(0, 0));
    Router& down = f.mesh.router(dst);
    f.mesh.ni(f.mesh.tile_id(1, 1)).inject(packet_of_size(512), dst, 0);
    f.sim.run(3);
    f.mesh.ni(f.mesh.tile_id(0, 0))
        .inject(packet_of_size(512), dst, f.sim.now());
    for (int c = 0; c < 100 && up.credits(Direction::kEast) > kDepth - 2;
         ++c) {
      f.sim.step();
    }
    const std::uint32_t held = up.credits(Direction::kEast);
    ASSERT_LE(held, kDepth - 2) << to_string(mode);
    const std::uint32_t leak = held + 1;
    down.fault_leak_credits(static_cast<int>(Direction::kWest), leak);
    EXPECT_EQ(up.credits(Direction::kEast), 0u);

    int received = 0;
    ASSERT_TRUE(f.sim.run_until(
        [&] {
          while (f.mesh.ni(dst).try_receive(f.sim.now()) != nullptr) {
            ++received;
          }
          return received == 2;
        },
        10000))
        << to_string(mode);
    EXPECT_EQ(up.credits(Direction::kEast), kDepth - leak) << to_string(mode);
    EXPECT_EQ(down.credit_violations(), 0u) << to_string(mode);
  }
}

}  // namespace
}  // namespace panic::noc
