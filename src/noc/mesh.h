// Builds the k×k mesh of routers and network interfaces that forms the
// PANIC on-chip network (Figure 3c).  Tile addresses are row-major:
// tile(x, y) = y*k + x; EngineId values are tile addresses.
//
// The Mesh is the simulator's one component for the whole NoC: it ticks
// its NIs, then its routers, in tile order.  Under the event kernel it
// ticks only the members that hold work.  A member joins that set when a
// hand-off gives it work and leaves it after a tick that leaves it none
// (DESIGN.md §5, "The mesh as one component").
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

class Mesh final : public Component {
 public:
  /// Constructs the routers and NIs and registers the mesh with `sim`.
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
  /// body flits remain: a shorter train saves a few member ticks and
  /// costs a path walk and a hand-back.
  static constexpr std::uint32_t kMinTrainCycles = 8;

  /// Dense kernel: ticks every NI, then every router.  Event kernel:
  /// ticks the members that held work when the cycle's walk began, NIs
  /// then routers, in tile order, and drops each one that its tick left
  /// without work.
  void tick(Cycle now) override;

  /// `now + 1` while any member holds work; otherwise the last cycle of
  /// the earliest-ending train, so that cycle runs and hands its path
  /// back; otherwise never.
  Cycle next_wake(Cycle now) const override;

  /// Every NI, then every router, interns its name and publishes its
  /// metrics.  The Mesh interns no name of its own: trace events carry
  /// the member's tag.
  void register_telemetry(telemetry::Telemetry& t) override;

  /// Brings every train's path — queues, counters, the source's segmenter
  /// — up to the last completed cycle.  Every read of a NoC counter calls
  /// it (Router::flits_routed, NetworkInterface::flits_sent, snapshots and
  /// resets through the metrics registry), so trains are invisible at
  /// cycle boundaries.
  void settle_trains();

  /// Ends every train at the last completed cycle and hands its path
  /// back, so per-flit ticking resumes this cycle.  Arming a router fault
  /// calls it: a faulted router never joins a train.
  void end_trains();

  /// Declares that a watchdog reads router counters from its tick every
  /// cycle.  Trains are exact only at cycle boundaries, so none forms from
  /// now on.
  void attach_router_watchdog();

 private:
  friend class Router;            // hands work to routers and NIs
  friend class NetworkInterface;  // hands work to its own NI

  /// Hand-offs: the member now holds work and ticks from the present
  /// cycle on (DESIGN.md §5 rule 2 decides whether that is this cycle or
  /// the next).  NI t is member t and router t is member k² + t.
  void mark_ni(int tile) { mark(static_cast<std::size_t>(tile)); }
  void mark_router(int tile) {
    mark(static_cast<std::size_t>(tiles() + tile));
  }
  void mark(std::size_t member) {
    // busy_words_ is zero only between walks (during one, the ticking
    // member's own bit is still set), where the Mesh may be parked.
    if (busy_words_ == 0) request_wake(sim_.now());
    busy_[member / 64] |= std::uint64_t{1} << (member % 64);
    busy_words_ |= std::uint64_t{1} << (member / 64);
  }

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
  /// Settles `t` through `through`, releases its ports and hands every
  /// member on its path work again.
  void hand_back(Train& t, Cycle through);

  MeshConfig config_;
  Simulator& sim_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  /// Routers with credit returns staged this cycle, appended by the
  /// popping downstream router and emptied by the end-of-cycle flush.
  std::vector<Router*> credit_dirty_;

  // --- Occupancy (event kernel; hand-offs set bits under both). ---
  /// Bit per member, set while the member holds work.
  std::vector<std::uint64_t> busy_;
  /// Bit w set while busy_[w] is non-zero (2k² <= 64 * 64 members).
  std::uint64_t busy_words_ = 0;
  /// busy_ as the cycle's walk found it: a member handed work during the
  /// walk got it ready for the next cycle, so it waits for that walk.
  std::vector<std::uint64_t> walk_;
  std::uint64_t member_ticks_ = 0;  ///< kernel.noc.member_ticks

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
