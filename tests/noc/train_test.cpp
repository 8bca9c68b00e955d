// The event kernel's NoC schedule against the per-flit reference.
//
// Wormhole trains: under the event kernel the Mesh carries a streaming
// message's body instead of ticking every router per flit; the dense
// kernel never forms a train.  Each NocTrain case runs one traffic script
// on both kernels in lockstep and requires, after every step, the same
// credits, flit counters and queue occupancies everywhere in the mesh —
// and that the event kernel did form trains.
//
// Occupancy: the mesh is one kernel component; under the event kernel it
// ticks only the members that hold work (Router::has_work,
// NetworkInterface::has_work), and a hand-off into a member lands in the
// cycle DESIGN.md §5's rule 2 gives it (MeshSchedule.*).
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "noc/mesh.h"
#include "sim/simulator.h"

namespace panic::noc {
namespace {

constexpr SimMode kModes[] = {SimMode::kStrictTick, SimMode::kEventDriven};

constexpr Direction kDirections[] = {Direction::kNorth, Direction::kEast,
                                     Direction::kSouth, Direction::kWest,
                                     Direction::kLocal};

/// A message that takes exactly `flits` flits on 64-bit links.
MessagePtr message_of_flits(std::uint32_t flits) {
  auto msg = make_message();
  // flits_for(w, 64) == w / 8 + 1 when w is a multiple of 8.
  msg->data.resize(8 * (flits - 1) - msg->chain.wire_size());
  EXPECT_EQ(flits_for(msg->wire_size(), 64), flits);
  return msg;
}

struct Leg {
  Leg(SimMode mode, int k, RoutingAlgo routing = RoutingAlgo::kXY)
      : sim(Frequency::megahertz(500), mode), mesh(config(k, routing), sim) {}
  static MeshConfig config(int k, RoutingAlgo routing) {
    MeshConfig c;
    c.k = k;
    c.channel_bits = 64;
    c.routing = routing;
    return c;
  }
  EngineId tile(int x, int y) const { return mesh.tile_id(x, y); }
  void send(int sx, int sy, int dx, int dy, std::uint32_t flits) {
    mesh.ni(tile(sx, sy)).inject(message_of_flits(flits), tile(dx, dy),
                                 sim.now());
  }
  std::uint64_t trains() const {
    return sim.snapshot().counter("kernel.noc.trains");
  }

  Simulator sim;
  Mesh mesh;
};

/// Everything a train must leave exact at a cycle boundary, mesh-wide.
std::string state(Leg& leg) {
  std::ostringstream os;
  for (int t = 0; t < leg.mesh.tiles(); ++t) {
    const EngineId tile{static_cast<std::uint16_t>(t)};
    const Router& r = leg.mesh.router(tile);
    NetworkInterface& ni = leg.mesh.ni(tile);
    os << "tile " << t << ": routed " << r.flits_routed() << " stalls "
       << r.stall_cycles() << " eject " << r.eject_queue().size()
       << " sent " << ni.flits_sent() << " msgs " << ni.messages_sent() << "/"
       << ni.messages_received() << " in";
    for (const Direction d : kDirections) os << ' ' << r.queued_flits(d);
    os << " credits";
    for (int d = 0; d < 4; ++d) os << ' ' << r.credits(kDirections[d]);
    os << '\n';
  }
  return os.str();
}

/// Runs `script` (called before each step with the cycle about to run) on
/// a dense and an event mesh for `cycles` cycles, comparing state after
/// every step.  Returns the event kernel's train count.
std::uint64_t run_lockstep(const std::function<void(Leg&, Cycle)>& script,
                           Cycles cycles,
                           RoutingAlgo routing = RoutingAlgo::kXY) {
  Leg dense(SimMode::kStrictTick, 4, routing);
  Leg event(SimMode::kEventDriven, 4, routing);
  for (Cycle c = 0; c < cycles; ++c) {
    script(dense, c);
    script(event, c);
    dense.sim.step();
    event.sim.step();
    const std::string want = state(dense);
    const std::string got = state(event);
    if (want != got) {
      ADD_FAILURE() << "cycle " << c << "\ndense:\n" << want << "event:\n"
                    << got;
      return event.trains();
    }
  }
  EXPECT_EQ(dense.trains(), 0u);
  return event.trains();
}

TEST(NocTrain, LongMessageOnBareMesh) {
  const auto trains = run_lockstep(
      [](Leg& leg, Cycle c) {
        if (c == 0) leg.send(0, 0, 3, 2, 95);
      },
      160);
  EXPECT_GT(trains, 0u);
}

TEST(NocTrain, HeadBehindHeldOutputAllocatesOnTheDenseCycle) {
  // A streams east along row 0 into (3,0)'s local port; B turns north
  // into (3,0) and waits for that same output, held by A's train.  With
  // nothing else to do, (3,0) has no work, so it leaves the mesh's walk
  // until A's train hands the path back.
  const auto trains = run_lockstep(
      [](Leg& leg, Cycle c) {
        if (c == 0) leg.send(0, 0, 3, 0, 95);
        if (c == 30) leg.send(1, 1, 3, 0, 40);
        if (c == 80 && leg.sim.mode() == SimMode::kEventDriven) {
          EXPECT_FALSE(leg.mesh.router(leg.tile(3, 0)).has_work());
        }
      },
      260);
  EXPECT_GT(trains, 0u);
}

TEST(NocTrain, FastForwardStopsAtTheHandBack) {
  // Alone on the mesh, every path component sleeps while the train runs,
  // so the event kernel fast-forwards; it must still run the cycle the
  // source hands the path back on.  The last run spans the whole train
  // (a run's first cycle always executes, so no chunk may start there).
  Leg dense(SimMode::kStrictTick, 4);
  Leg event(SimMode::kEventDriven, 4);
  for (Leg* leg : {&dense, &event}) leg->send(0, 0, 3, 3, 95);
  for (const Cycles chunk : {7, 13, 150}) {
    dense.sim.run(chunk);
    event.sim.run(chunk);
    ASSERT_EQ(event.sim.now(), dense.sim.now());
    ASSERT_EQ(state(event), state(dense)) << "at cycle " << dense.sim.now();
  }
  EXPECT_EQ(event.mesh.ni(event.tile(3, 3)).messages_received(), 1u);
  EXPECT_GT(event.trains(), 0u);
  EXPECT_GT(event.sim.fast_forwarded_cycles(), 0u);
}

TEST(NocTrain, SnapshotAndResetMidTrain) {
  Leg dense(SimMode::kStrictTick, 4);
  Leg event(SimMode::kEventDriven, 4);
  for (Leg* leg : {&dense, &event}) leg->send(0, 0, 3, 1, 95);
  auto noc_only = [](const std::string& name) {
    return name.rfind("noc.", 0) != 0;
  };
  for (Cycle c = 0; c < 150; ++c) {
    const bool mid_train = c == 40 || c == 70;
    if (mid_train) {
      // The event leg has a train in flight, not settled since cycle
      // c - 3: the snapshot and the reset must settle it themselves.
      EXPECT_TRUE(dense.sim.snapshot()
                      .diff_names(event.sim.snapshot(), noc_only)
                      .empty())
          << "cycle " << c;
      dense.sim.telemetry().metrics().reset();
      event.sim.telemetry().metrics().reset();
    }
    dense.sim.step();
    event.sim.step();
    // Reading the state settles the train, so skip it just before the
    // snapshots.
    if (c % 30 < 7 || c % 30 > 9) {
      ASSERT_EQ(state(event), state(dense)) << "cycle " << c;
    }
  }
  EXPECT_TRUE(
      dense.sim.snapshot().diff_names(event.sim.snapshot(), noc_only).empty());
  EXPECT_GT(event.mesh.total_flits_routed(), 0u);
  EXPECT_GT(event.sim.snapshot().counter("kernel.noc.train_moves"), 0u);
}

TEST(NocTrain, FaultsArmedMidTrainEndIt) {
  // Two streams; mid-train a credit leak hits one path and, later, a
  // flaky link the other.  Arming either ends every train at the last
  // completed cycle and the faulted routers forward per flit from then on.
  const auto trains = run_lockstep(
      [](Leg& leg, Cycle c) {
        if (c == 0) {
          leg.send(0, 0, 3, 0, 95);
          leg.send(0, 2, 3, 2, 95);
        }
        if (c == 40) {
          // Leaves (1,0) one slot of (2,0)'s buffer: half rate.
          leg.mesh.router(leg.tile(2, 0))
              .fault_leak_credits(static_cast<int>(Direction::kWest), 7);
        }
        if (c == 75) {
          leg.mesh.router(leg.tile(2, 2))
              .fault_link(static_cast<int>(Direction::kWest), 0.5, 3, 110, 7);
        }
        if (c == 120) {
          leg.send(0, 0, 3, 0, 60);
          leg.send(0, 2, 3, 2, 60);
        }
      },
      320);
  EXPECT_GT(trains, 0u);
}

TEST(NocTrain, SourceTileIsDestinationTile) {
  const auto trains = run_lockstep(
      [](Leg& leg, Cycle c) {
        if (c == 0) leg.send(2, 1, 2, 1, 95);
      },
      120);
  EXPECT_GT(trains, 0u);
}

TEST(NocTrain, BackToBackMessagesFromOneNi) {
  const auto trains = run_lockstep(
      [](Leg& leg, Cycle c) {
        if (c == 0) {
          leg.send(1, 0, 2, 3, 60);
          leg.send(1, 0, 2, 3, 33);
          leg.send(1, 0, 0, 3, 95);
        }
      },
      260);
  EXPECT_GE(trains, 3u);
}

TEST(NocTrain, CrossTrafficOnATrainRoutersOtherOutputs) {
  // Row 1 eastward and column 1 southward cross at (1,1) on different
  // ports; a third stream leaves (1,1) westward while both are held.
  const auto trains = run_lockstep(
      [](Leg& leg, Cycle c) {
        if (c == 0) {
          leg.send(0, 1, 3, 1, 95);
          leg.send(1, 0, 1, 3, 95);
        }
        if (c == 25) leg.send(1, 1, 0, 1, 30);
        if (c == 35) leg.send(2, 1, 0, 1, 20);
      },
      200);
  EXPECT_GE(trains, 2u);
}

TEST(NocTrain, WestFirstRoutingWithContention) {
  // Adaptive routing: heads may pick among productive outputs, so a head
  // next to a held output keeps its router awake instead of sleeping.  At
  // cycle 30 the (0,1) -> (3,2) train holds (1,1)'s East output; the head
  // to (2,2) reaches the front of (1,1)'s local input behind another
  // message's tail, with East held and South free, and must leave South.
  const auto trains = run_lockstep(
      [](Leg& leg, Cycle c) {
        if (c == 0) {
          leg.send(0, 0, 3, 3, 95);
          leg.send(0, 1, 3, 2, 95);
        }
        if (c == 20) leg.send(1, 0, 3, 1, 60);
        if (c == 30) {
          leg.send(1, 1, 1, 2, 4);
          leg.send(1, 1, 2, 2, 12);
        }
        if (c == 40) leg.send(3, 3, 0, 0, 50);
      },
      300, RoutingAlgo::kWestFirst);
  EXPECT_GE(trains, 2u);
}

// --- The mesh's schedule. ---

/// Calls `fn` from its tick every cycle; registered after the mesh, it
/// ticks after every router and NI.
class Caller : public Component {
 public:
  explicit Caller(std::function<void(Cycle)> fn)
      : Component("caller"), fn_(std::move(fn)) {}
  void tick(Cycle now) override { fn_(now); }

 private:
  std::function<void(Cycle)> fn_;
};

TEST(MeshSchedule, BareMeshTakesOneKernelSlot) {
  for (const int k : {2, 4, 16}) {
    Leg leg(SimMode::kEventDriven, k);
    EXPECT_EQ(leg.sim.active_components(), 1u) << "k=" << k;
  }
}

TEST(MeshSchedule, MemberTicksCountEveryMemberUnderTheDenseKernel) {
  Leg leg(SimMode::kStrictTick, 4);
  leg.sim.run(10);
  EXPECT_EQ(leg.sim.component_ticks(), 10u);
  EXPECT_EQ(leg.sim.snapshot().counter("kernel.noc.member_ticks"),
            10u * 2 * 16);
}

TEST(MeshSchedule, IdleMeshParksAndFastForwards) {
  Leg leg(SimMode::kEventDriven, 4);
  leg.sim.run(1000);
  EXPECT_EQ(leg.sim.active_components(), 0u);
  EXPECT_GT(leg.sim.fast_forwarded_cycles(), 900u);
  EXPECT_EQ(leg.sim.snapshot().counter("kernel.noc.member_ticks"), 0u);
}

TEST(MeshSchedule, HeadBehindAHeldOutputHasNoWork) {
  // A streams east along row 0 into (3,0)'s local port as a train; B
  // reaches (3,0) from the south wanting that same, held, output.
  Leg leg(SimMode::kEventDriven, 4);
  const Router& r = leg.mesh.router(leg.tile(3, 0));
  leg.send(0, 0, 3, 0, 95);
  leg.sim.run(30);
  leg.send(1, 1, 3, 0, 40);
  leg.sim.run(50);
  ASSERT_GT(leg.trains(), 0u);
  ASSERT_GT(r.queued_flits(Direction::kSouth), 0u);
  EXPECT_FALSE(r.has_work());
}

TEST(MeshSchedule, HeadStalledOnCreditsHasWork) {
  // Leaking the whole West buffer of (1,0) leaves (0,0) no East credit:
  // the head at (0,0)'s local input is granted and stalls every cycle.
  for (const SimMode mode : kModes) {
    Leg leg(mode, 2);
    const Router& r = leg.mesh.router(leg.tile(0, 0));
    leg.mesh.router(leg.tile(1, 0))
        .fault_leak_credits(static_cast<int>(Direction::kWest), 8);
    leg.send(0, 0, 1, 0, 4);
    leg.sim.run(20);
    ASSERT_EQ(r.credits(Direction::kEast), 0u) << to_string(mode);
    ASSERT_GT(r.queued_flits(Direction::kLocal), 0u) << to_string(mode);
    EXPECT_TRUE(r.has_work()) << to_string(mode);
    const std::uint64_t stalls = r.stall_cycles();
    leg.sim.run(10);
    EXPECT_EQ(r.stall_cycles(), stalls + 10) << to_string(mode);
  }
}

TEST(MeshSchedule, OnlyHeldPortsMeanNoWork) {
  // Mid-train, a middle router's only occupied input is held, and so are
  // the source NI's injection side and the destination NI's ejection side.
  Leg leg(SimMode::kEventDriven, 4);
  leg.send(0, 0, 3, 0, 95);
  leg.sim.run(40);
  ASSERT_GT(leg.trains(), 0u);
  const Router& mid = leg.mesh.router(leg.tile(1, 0));
  ASSERT_GT(mid.queued_flits(Direction::kWest), 0u);
  EXPECT_FALSE(mid.has_work());
  EXPECT_FALSE(leg.mesh.ni(leg.tile(0, 0)).has_work());
  EXPECT_FALSE(leg.mesh.ni(leg.tile(3, 0)).has_work());
  // The hand-back returns them work, and the message arrives whole.
  leg.sim.run(200);
  EXPECT_EQ(leg.mesh.ni(leg.tile(3, 0)).messages_received(), 1u);
}

TEST(MeshSchedule, FrontDelayedByAFlakyLinkHasWork) {
  // Every flit into (1,0)'s West input is delayed 50 cycles: the front
  // waits, unready, and the router keeps ticking it as a no-op.
  for (const SimMode mode : kModes) {
    Leg leg(mode, 2);
    Router& r = leg.mesh.router(leg.tile(1, 0));
    r.fault_link(static_cast<int>(Direction::kWest), 1.0, 50, 1000, 3);
    leg.send(0, 0, 1, 0, 2);
    leg.sim.run(10);
    ASSERT_GT(r.queued_flits(Direction::kWest), 0u) << to_string(mode);
    EXPECT_EQ(r.flits_routed(), 0u) << to_string(mode);
    EXPECT_TRUE(r.has_work()) << to_string(mode);
    leg.sim.run(100);
    EXPECT_EQ(r.flits_delayed(), 2u) << to_string(mode);
    EXPECT_EQ(leg.mesh.ni(leg.tile(1, 0)).messages_received(), 1u)
        << to_string(mode);
  }
}

TEST(MeshSchedule, InjectionFromTheEventsPhaseMovesThatCycle) {
  // The event fires at the start of cycle 100, before the mesh ticks, so
  // the NI pushes the head into its router's local input in cycle 100.
  for (const SimMode mode : kModes) {
    Leg leg(mode, 4);
    const Router& r = leg.mesh.router(leg.tile(1, 2));
    leg.sim.schedule_at(100, [&] { leg.send(1, 2, 3, 3, 4); });
    leg.sim.run(100);
    EXPECT_EQ(r.queued_flits(Direction::kLocal), 0u) << to_string(mode);
    leg.sim.step();
    EXPECT_EQ(r.queued_flits(Direction::kLocal), 1u) << to_string(mode);
  }
}

TEST(MeshSchedule, InjectionFromALaterComponentMovesNextCycle) {
  // A component registered after the mesh ticks after the NIs, so the NI
  // it hands a message to in cycle 100 first injects in cycle 101.
  for (const SimMode mode : kModes) {
    Leg leg(mode, 4);
    const Router& r = leg.mesh.router(leg.tile(1, 2));
    Caller caller([&](Cycle now) {
      if (now == 100) leg.send(1, 2, 3, 3, 4);
    });
    leg.sim.add(&caller);
    leg.sim.run(101);
    EXPECT_EQ(r.queued_flits(Direction::kLocal), 0u) << to_string(mode);
    leg.sim.step();
    EXPECT_EQ(r.queued_flits(Direction::kLocal), 1u) << to_string(mode);
  }
}

}  // namespace
}  // namespace panic::noc
