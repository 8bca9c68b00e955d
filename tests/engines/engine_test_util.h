// Shared mini-mesh fixture for engine integration tests: a small mesh with
// helpers to send a message to an engine tile and collect whatever arrives
// at an observation tile.
#pragma once

#include "noc/mesh.h"
#include "sim/simulator.h"

namespace panic::engines::testutil {

struct MiniMesh {
  explicit MiniMesh(int k = 3, std::uint32_t bits = 128)
      : sim(), mesh(make_config(k, bits), sim) {}

  static noc::MeshConfig make_config(int k, std::uint32_t bits) {
    noc::MeshConfig c;
    c.k = k;
    c.channel_bits = bits;
    return c;
  }

  EngineId tile(int x, int y) { return mesh.tile_id(x, y); }

  /// Injects at `from`, first stepping the simulator until its NI has
  /// room (a burst beyond the inject depth drains as a real engine's
  /// would).
  void send(MessagePtr msg, EngineId from, EngineId to) {
    noc::NetworkInterface& ni = mesh.ni(from);
    while (!ni.can_inject()) sim.step();
    ni.inject(std::move(msg), to, sim.now());
  }

  /// Runs until a message arrives at `at` (draining it), or max_cycles.
  MessagePtr collect(EngineId at, Cycles max_cycles = 100000) {
    MessagePtr got;
    sim.run_until(
        [&] {
          got = mesh.ni(at).try_receive(sim.now());
          return got != nullptr;
        },
        max_cycles);
    return got;
  }

  Simulator sim;
  noc::Mesh mesh;
};

}  // namespace panic::engines::testutil
