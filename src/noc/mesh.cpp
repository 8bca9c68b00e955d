#include "noc/mesh.h"

#include <cassert>
#include <cstdlib>

namespace panic::noc {

Mesh::Mesh(const MeshConfig& config, Simulator& sim) : config_(config) {
  const int k = config_.k;
  assert(k >= 2);
  routers_.reserve(static_cast<std::size_t>(k) * k);
  nis_.reserve(static_cast<std::size_t>(k) * k);

  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      routers_.push_back(std::make_unique<Router>(
          x, y, k, config_.buffer_flits, config_.routing));
    }
  }
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      Router* r = routers_[static_cast<std::size_t>(y) * k + x].get();
      if (y > 0) {
        r->connect(Direction::kNorth,
                   routers_[static_cast<std::size_t>(y - 1) * k + x].get());
      }
      if (y + 1 < k) {
        r->connect(Direction::kSouth,
                   routers_[static_cast<std::size_t>(y + 1) * k + x].get());
      }
      if (x > 0) {
        r->connect(Direction::kWest,
                   routers_[static_cast<std::size_t>(y) * k + x - 1].get());
      }
      if (x + 1 < k) {
        r->connect(Direction::kEast,
                   routers_[static_cast<std::size_t>(y) * k + x + 1].get());
      }
    }
  }
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const EngineId tile = tile_id(x, y);
      nis_.push_back(std::make_unique<NetworkInterface>(
          tile, config_.channel_bits, routers_[tile.value].get(),
          config_.inject_depth));
    }
  }

  // Tick NIs before routers so an injected flit can be considered by the
  // router on the next cycle (both use ready = now + 1, so order only
  // affects constant staging latency, not correctness).
  for (auto& ni : nis_) sim.add(ni.get());
  for (auto& r : routers_) sim.add(r.get());

  sim.telemetry().metrics().expose_gauge("noc.flits_routed", [this] {
    return static_cast<double>(total_flits_routed());
  });

  // Registered credit-based flow control: credits freed by pops this cycle
  // become visible to upstream routers at the next cycle, in every kernel
  // mode (see noc/router.h).  Only the routers a pop listed as dirty have
  // returns staged, so only they are flushed.
  wire_credit_dirty_lists(sim);
  sim.add_end_of_cycle_hook([this](Cycle) {
    for (auto& dirty : credit_dirty_) {
      for (Router* r : dirty) r->flush_credits();
      dirty.clear();
    }
  });
}

void Mesh::wire_credit_dirty_lists(const Simulator& sim) {
  credit_dirty_.assign(static_cast<std::size_t>(sim.num_shards()) + 1, {});
  // A router pops at most one flit per mesh input per cycle, so four
  // entries per router bound a list between two flushes: appends never
  // allocate.
  for (auto& list : credit_dirty_) list.reserve(4 * routers_.size());
  for (auto& r : routers_) {
    r->set_credit_dirty_list(
        &credit_dirty_[static_cast<std::size_t>(sim.shard_of(r.get()) + 1)]);
  }
}

void Mesh::assign_shards(const std::vector<int>& tile_to_shard,
                         Simulator& sim) {
  if (sim.mode() != SimMode::kParallelShards) return;
  assert(tile_to_shard.size() == static_cast<std::size_t>(tiles()));
  tile_shards_ = tile_to_shard;
  boundary_staged_.resize(static_cast<std::size_t>(sim.num_shards()));

  const int k = config_.k;
  for (int t = 0; t < tiles(); ++t) {
    const int shard = tile_shards_[static_cast<std::size_t>(t)];
    sim.set_shard(nis_[static_cast<std::size_t>(t)].get(), shard);
    sim.set_shard(routers_[static_cast<std::size_t>(t)].get(), shard);
    if (shard < 0) continue;
    // Mark outputs whose neighbor lives on another shard as boundaries;
    // the staging vector belongs to the *source* shard (single writer).
    const int x = t % k, y = t / k;
    struct Hop {
      Direction dir;
      int dx, dy;
    };
    static constexpr Hop kHops[] = {{Direction::kNorth, 0, -1},
                                    {Direction::kEast, 1, 0},
                                    {Direction::kSouth, 0, 1},
                                    {Direction::kWest, -1, 0}};
    for (const Hop& h : kHops) {
      const int nx = x + h.dx, ny = y + h.dy;
      if (nx < 0 || nx >= k || ny < 0 || ny >= k) continue;
      const int nt = ny * k + nx;
      if (tile_shards_[static_cast<std::size_t>(nt)] != shard) {
        routers_[static_cast<std::size_t>(t)]->set_boundary(
            h.dir, &boundary_staged_[static_cast<std::size_t>(shard)]);
      }
    }
  }
  wire_credit_dirty_lists(sim);

  // The coordinator replays staged boundary flits right after the cycle
  // barrier, before serial components tick: deterministic order (by source
  // shard, then staging order within the shard), and inter-port ordering
  // is immaterial — each mesh input port has exactly one producer.
  sim.add_post_parallel_hook([this](Cycle now) {
    for (auto& staged : boundary_staged_) {
      for (BoundaryFlit& bf : staged) {
        bf.target->accept(bf.from, std::move(bf.flit), now);
      }
      staged.clear();
    }
  });
}

int Mesh::distance(EngineId a, EngineId b) const {
  const int ax = a.value % config_.k, ay = a.value / config_.k;
  const int bx = b.value % config_.k, by = b.value / config_.k;
  return std::abs(ax - bx) + std::abs(ay - by);
}

std::uint64_t Mesh::total_flits_routed() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r->flits_routed();
  return total;
}

}  // namespace panic::noc
