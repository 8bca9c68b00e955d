// Builds the k×k mesh of routers and network interfaces that forms the
// PANIC on-chip network (Figure 3c).  Tile addresses are row-major:
// tile(x, y) = y*k + x; EngineId values are tile addresses.
//
// Under the event kernel the mesh also carries *wormhole trains*: once
// every hop on a message's locked path moves one flit per cycle, the Mesh
// advances the whole path arithmetically instead of ticking each router
// per flit, and hands it back to per-flit ticking for the tail.  DESIGN.md
// §5 "Wormhole trains" gives the formation rule and why it is exact.
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

  /// A message is carried as a train only if at least this many of its
  /// body flits remain.  Below the event kernel's linger window (8
  /// cycles) the source NI would stay awake anyway, while every router on
  /// the path pays a park and a hand-back wake.
  static constexpr std::uint32_t kMinTrainCycles = 8;

  /// Brings every train's path — queues, counters, the source's segmenter
  /// — up to the last completed cycle.  Every read of a NoC counter calls
  /// it (Router::flits_routed, NetworkInterface::flits_sent, snapshots and
  /// resets through the metrics registry), so trains are invisible at
  /// cycle boundaries.
  void settle_trains();

  /// Ends every train at the last completed cycle and wakes its path, so
  /// per-flit ticking resumes this cycle.  Arming a router fault calls it:
  /// a faulted router never joins a train.
  void end_trains();

  /// Declares that a watchdog reads router counters from its tick every
  /// cycle.  Trains are exact only at cycle boundaries, so none forms from
  /// now on.
  void attach_router_watchdog();

 private:
  /// One hop of a train's path: `router` forwards from input `in` to
  /// output `out` (kLocal at the destination router).
  struct TrainHop {
    Router* router;
    std::uint8_t in;
    std::uint8_t out;
  };
  /// The train of the message at the head of source tile t's injection
  /// queue, at trains_[t].  Its path state is materialized through cycle
  /// `anchor`; it carries the path through cycle `end`, the cycle before
  /// the source injects the tail flit.
  struct Train {
    NetworkInterface* src = nullptr;
    NetworkInterface* dst = nullptr;
    std::vector<TrainHop> hops;  ///< reserved once per source tile
    Cycle anchor = 0;
    Cycle end = 0;
  };

  /// End of cycle `now`: flushes staged credit returns, hands back the
  /// trains whose last cycle this was, then forms trains for the listed
  /// candidates.
  void end_of_cycle(Cycle now);
  /// Forms a train for `src`'s front message if every hop on its path
  /// moved one flit this cycle and each queue between hops holds one
  /// contiguous run of the message.
  void try_form_train(NetworkInterface& src, Cycle now);
  /// Advances `t`'s path from its anchor through cycle `through`.
  void advance(Train& t, Cycle through);
  /// Settles `t` through `through`, releases its ports and wakes its path
  /// at `through + 1`.
  void hand_back(Train& t, Cycle through);

  MeshConfig config_;
  Simulator& sim_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  /// Routers with credit returns staged this cycle, appended by the
  /// popping downstream router and emptied by the end-of-cycle flush.
  std::vector<Router*> credit_dirty_;

  // --- Wormhole trains (event kernel only). ---
  std::vector<Train> trains_;          ///< by source tile
  std::vector<int> active_trains_;     ///< source tiles with a train
  Cycle next_train_end_ = Component::kNeverWake;
  /// NIs that injected a body flit this cycle; one entry per NI at most.
  std::vector<NetworkInterface*> train_candidates_;
  std::uint64_t trains_formed_ = 0;  ///< kernel.noc.trains
  /// Router forwards carried by trains (kernel.noc.train_moves), the share
  /// of noc.flits_routed that no router tick performed.
  std::uint64_t train_moves_ = 0;
};

}  // namespace panic::noc
