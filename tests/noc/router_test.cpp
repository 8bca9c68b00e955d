#include "noc/router.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
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
  MeshFixture(int k, std::uint32_t bits,
              SimMode mode = SimMode::kEventDriven)
      : sim(Frequency::megahertz(500), mode),
        mesh(make_config(k, bits), sim) {}
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
                                    SimMode::kEventDriven};

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
  // stages a return on it.
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

// --- Arbitration: the switch allocator's decisions, pinned exactly. ---
//
// Both kernels run the same Router::tick, so the dense-vs-event gates
// cannot see a change in how outputs are granted.  These cases pin the
// allocator's observable decisions on a 3x3 mesh with 64-bit links and
// 8-flit buffers: which message reaches its destination NI when, and each
// router's forwards and stall cycles.  The expected strings were recorded
// from the reference allocator (the 5x5 round-robin scan); every case must
// read the same under both kernels.

/// A message that takes exactly `flits` (>= 2) flits on 64-bit links.
MessagePtr message_of_flits(std::uint32_t flits) {
  auto msg = make_message();
  // flits_for(w, 64) == w / 8 + 1 when w is a multiple of 8.
  msg->data.resize(8 * (flits - 1) - msg->chain.wire_size());
  EXPECT_EQ(flits_for(msg->wire_size(), 64), flits);
  return msg;
}

struct ArbSend {
  Cycle at;  ///< the cycle the source NI is handed the message
  int sx, sy, dx, dy;
  std::uint32_t flits;
  char label;
};

/// Runs `sends` for `cycles` cycles and returns what the allocator
/// decided: "label@cycle" per delivered message in arrival order, then
/// each router's forwarded flits and stall cycles (row-major tiles).
/// `trains`, if given, receives the number of wormhole trains formed.
std::string arbitrate(SimMode mode, RoutingAlgo routing,
                      const std::vector<ArbSend>& sends, Cycles cycles,
                      std::uint64_t* trains = nullptr) {
  Simulator sim(Frequency::megahertz(500), mode);
  MeshConfig config;
  config.k = 3;
  config.channel_bits = 64;
  config.routing = routing;
  Mesh mesh(config, sim);
  std::vector<std::pair<MessageId, char>> labels;
  std::ostringstream os;
  for (Cycles c = 0; c < cycles; ++c) {
    for (const ArbSend& s : sends) {
      if (s.at != sim.now()) continue;
      auto msg = message_of_flits(s.flits);
      labels.emplace_back(msg->id, s.label);
      mesh.ni(mesh.tile_id(s.sx, s.sy))
          .inject(std::move(msg), mesh.tile_id(s.dx, s.dy), sim.now());
    }
    sim.step();
    for (int t = 0; t < mesh.tiles(); ++t) {
      NetworkInterface& ni = mesh.ni(EngineId{static_cast<std::uint16_t>(t)});
      while (MessagePtr m = ni.try_receive(sim.now())) {
        for (const auto& [id, label] : labels) {
          if (id == m->id) os << label << '@' << sim.now() << ' ';
        }
      }
    }
  }
  os << "| routed";
  for (int t = 0; t < mesh.tiles(); ++t) {
    os << ' ' << mesh.router(EngineId{static_cast<std::uint16_t>(t)})
                     .flits_routed();
  }
  os << " | stalls";
  for (int t = 0; t < mesh.tiles(); ++t) {
    os << ' ' << mesh.router(EngineId{static_cast<std::uint16_t>(t)})
                     .stall_cycles();
  }
  if (trains != nullptr) {
    *trains = sim.snapshot().counter("kernel.noc.trains");
  }
  return os.str();
}

TEST(RouterArbitration, FourInputsShareOneOutputInRoundRobinOrder) {
  // Router (1,1)'s South output feeds tile (1,2), whose ejection a long
  // self-addressed message B holds.  Heads on (1,1)'s Local, North, East
  // and West inputs all want South: they are granted round robin, and
  // once (1,2)'s buffer is full every cycle with a granted head counts a
  // stall at (1,1).
  const std::vector<ArbSend> sends = {
      {0, 1, 2, 1, 2, 30, 'B'}, {0, 1, 1, 1, 2, 4, 'L'},
      {0, 1, 0, 1, 2, 4, 'N'},  {0, 2, 1, 1, 2, 4, 'E'},
      {0, 0, 1, 1, 2, 4, 'W'},
  };
  for (const SimMode mode : kCreditModes) {
    EXPECT_EQ(arbitrate(mode, RoutingAlgo::kXY, sends, 80),
              "B@32 L@36 N@40 W@44 E@48 | routed 0 4 0 4 16 4 0 46 0 | "
              "stalls 0 0 0 0 23 0 0 0 0")
        << to_string(mode);
  }
}

TEST(RouterArbitration, StalledGrantStillMovesThePointer) {
  // P fills tile (1,2)'s North buffer, so (1,1)'s South output is free but
  // has no credit while heads on East and West want it.  Each cycle the
  // grant goes to the first requester at or after the pointer, the
  // pointer moves past it and the grant stalls; so the two alternate, and
  // whichever holds the grant when B's tail frees a slot goes first.  One
  // more flit on B flips the winner.
  const std::pair<std::uint32_t, const char*> cases[] = {
      {30, "B@32 P@40 E@44 W@48 | routed 0 8 0 4 16 4 0 46 0 | "
           "stalls 0 0 0 0 22 0 0 0 0"},
      {31, "B@33 P@41 W@45 E@49 | routed 0 8 0 4 16 4 0 47 0 | "
           "stalls 0 0 0 0 23 0 0 0 0"},
  };
  for (const auto& [blocker, expected] : cases) {
    const std::vector<ArbSend> sends = {
        {0, 1, 2, 1, 2, blocker, 'B'}, {0, 1, 0, 1, 2, 8, 'P'},
        {0, 2, 1, 1, 2, 4, 'E'},       {0, 0, 1, 1, 2, 4, 'W'},
    };
    for (const SimMode mode : kCreditModes) {
      EXPECT_EQ(arbitrate(mode, RoutingAlgo::kXY, sends, 80), expected)
          << to_string(mode) << " blocker " << blocker;
    }
  }
}

TEST(RouterArbitration, WestFirstHeadStalledOnEastLeavesSouthSameCycle) {
  // M fills tile (2,1)'s West buffer behind B, so (1,1)'s East output has
  // no credit when H's head (to (2,2): East and South both productive)
  // reaches (1,1).  East, visited first, grants H and stalls; the stalled
  // grant does not use H's input, so South takes H in the same cycle.
  // (1,1) counts exactly that one stall and (1,2) forwards H's 4 flits.
  const std::vector<ArbSend> sends = {
      {0, 2, 1, 2, 1, 30, 'B'},
      {0, 1, 1, 2, 1, 8, 'M'},
      {0, 1, 1, 2, 2, 4, 'H'},
  };
  for (const SimMode mode : kCreditModes) {
    EXPECT_EQ(arbitrate(mode, RoutingAlgo::kWestFirst, sends, 80),
              "H@16 B@32 M@40 | routed 0 0 0 0 12 38 0 4 4 | "
              "stalls 0 0 0 0 1 0 0 0 0")
        << to_string(mode);
  }
}

TEST(RouterArbitration, HeadWaitsForOwnedOutputWithoutStalling) {
  // M owns (1,1)'s East output for 40 flits; H's only permitted output is
  // East too (under either algorithm), so H waits for M's tail.  An owned
  // output serves only its owner, and nothing downstream is full, so no
  // router counts a stall.  The event kernel carries M as a train, which
  // holds the output H waits for.
  const std::vector<ArbSend> sends = {
      {0, 0, 1, 2, 1, 40, 'M'},
      {3, 1, 1, 2, 1, 4, 'H'},
  };
  for (const RoutingAlgo routing :
       {RoutingAlgo::kXY, RoutingAlgo::kWestFirst}) {
    for (const SimMode mode : kCreditModes) {
      std::uint64_t trains = 0;
      EXPECT_EQ(arbitrate(mode, routing, sends, 80, &trains),
                "M@44 H@48 | routed 0 0 0 40 44 44 0 0 0 | "
                "stalls 0 0 0 0 0 0 0 0 0")
          << to_string(mode);
      if (mode == SimMode::kEventDriven) {
        EXPECT_GT(trains, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace panic::noc
