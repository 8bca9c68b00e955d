// Builds the k×k mesh of routers and network interfaces that forms the
// PANIC on-chip network (Figure 3c).  Tile addresses are row-major:
// tile(x, y) = y*k + x; EngineId values are tile addresses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "noc/network_interface.h"
#include "noc/router.h"
#include "sim/simulator.h"

namespace panic::noc {

struct MeshConfig {
  int k = 6;                         ///< mesh side (k×k tiles)
  std::uint32_t channel_bits = 64;   ///< link width per cycle
  std::size_t buffer_flits = 8;      ///< input FIFO depth per port
  std::size_t inject_depth = 4;      ///< NI message injection queue
  RoutingAlgo routing = RoutingAlgo::kXY;
};

class Mesh {
 public:
  /// Constructs the routers/NIs and registers them with `sim`.
  Mesh(const MeshConfig& config, Simulator& sim);

  int k() const { return config_.k; }
  int tiles() const { return config_.k * config_.k; }
  std::uint32_t channel_bits() const { return config_.channel_bits; }
  const MeshConfig& config() const { return config_; }

  EngineId tile_id(int x, int y) const {
    return EngineId{static_cast<std::uint16_t>(y * config_.k + x)};
  }

  Router& router(EngineId tile) { return *routers_[tile.value]; }
  NetworkInterface& ni(EngineId tile) { return *nis_[tile.value]; }

  /// Manhattan distance between two tiles (minimum hop count - 1 ... the
  /// head flit also traverses the destination router, so latency lower
  /// bound is distance + 1 router cycles).
  int distance(EngineId a, EngineId b) const;

  /// Sum of flits routed across all routers (for utilization accounting).
  std::uint64_t total_flits_routed() const;

  /// Partitions the mesh for SimMode::kParallelShards: assigns each tile's
  /// router and NI to `tile_to_shard[tile]` (values in
  /// [0, sim.num_shards())), marks every router output that crosses a
  /// shard cut as a boundary (flits staged per source shard, delivered by
  /// the coordinator at the cycle barrier), registers the delivery hook,
  /// and gives each shard its own credit dirty list.  Call once, before
  /// the first step; a no-op outside parallel mode.  Tiles left
  /// unassigned (-1) stay serial — but a serial tile inside the mesh
  /// prefix would break the kernel's suffix rule, so assign every tile.
  void assign_shards(const std::vector<int>& tile_to_shard, Simulator& sim);

  /// The shard tile `tile` was assigned to (-1 = serial / not sharded).
  int shard_of(EngineId tile) const {
    return tile_shards_.empty() ? -1 : tile_shards_[tile.value];
  }

 private:
  /// Points every router at the credit dirty list of the thread that ticks
  /// it (its shard in `sim`), reserving each list for a full cycle.
  void wire_credit_dirty_lists(const Simulator& sim);

  MeshConfig config_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::vector<int> tile_shards_;  ///< per-tile shard (empty until assigned)
  /// Boundary flits staged during the parallel phase, one vector per
  /// *source* shard so each is written by exactly one worker thread.
  std::vector<std::vector<BoundaryFlit>> boundary_staged_;
  /// Routers with credit returns staged this cycle, appended by the
  /// popping downstream router and emptied by the end-of-cycle flush.  One
  /// list per thread that ticks routers — 0 for the sequential kernels and
  /// unsharded tiles, 1 + s for shard s — so each has a single writer.
  std::vector<std::vector<Router*>> credit_dirty_;
};

}  // namespace panic::noc
