// 5-port wormhole mesh router with XY dimension-order routing.
//
// Properties matching §3.1.2 of the paper:
//   * one cycle of latency per hop (flits become visible downstream one
//     cycle after they are forwarded),
//   * lossless operation — a flit only moves when the downstream input
//     buffer has a free slot (credit-based flow control),
//   * XY routing on a 2D mesh, which is deadlock-free without virtual
//     channels.
//
// Flow control is *registered* credit-based, like real hardware: each
// router keeps a per-output credit count initialized to the downstream
// input buffer's depth, spends one credit per forwarded flit, and credits
// freed by downstream pops are staged and folded back at the end of the
// cycle (Mesh registers the flush with the simulator).  A freed slot is
// therefore usable by the upstream one cycle later.  This makes
// backpressure independent of intra-cycle tick order — each mesh link has
// exactly one producer, so registered credits are also what lets the
// parallel kernel cut the mesh at shard boundaries without changing any
// observable behavior (see DESIGN.md §"Sharded parallel kernel").
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "noc/burst_queue.h"
#include "noc/flit.h"
#include "sim/component.h"

namespace panic::noc {

enum class Direction : std::uint8_t {
  kNorth = 0,
  kEast,
  kSouth,
  kWest,
  kLocal,
};
inline constexpr int kNumPorts = 5;

/// The input an output feeds on the neighbor: our East output feeds its
/// West input, etc.
inline constexpr Direction kReverse[] = {Direction::kSouth, Direction::kWest,
                                         Direction::kNorth, Direction::kEast,
                                         Direction::kLocal};

const char* to_string(Direction d);

/// Routing algorithm.  kXY is deterministic dimension-order routing.
/// kWestFirst is the classic turn-model adaptive algorithm: all West hops
/// are taken first (deterministically), after which the flit may choose
/// adaptively among the remaining productive directions — deadlock-free
/// on a mesh without virtual channels, and able to route around congested
/// links for east-bound traffic.
enum class RoutingAlgo : std::uint8_t { kXY, kWestFirst };

class Mesh;
class Router;

/// A flit crossing a shard boundary, staged by the source shard during the
/// parallel phase and delivered by the coordinator at the cycle barrier
/// (the 1-cycle hop latency is the conservative-synchronization lookahead
/// that makes the deferred delivery invisible).
struct BoundaryFlit {
  Router* target;
  Direction from;  ///< the target's input port
  Flit flit;
};

class Router : public Component {
 public:
  /// `x`,`y` — coordinates in a `k`×`k` mesh; `buffer_flits` — depth of
  /// each input FIFO.
  Router(int x, int y, int k, std::size_t buffer_flits,
         RoutingAlgo algo = RoutingAlgo::kXY);

  int x() const { return x_; }
  int y() const { return y_; }

  /// Wires this router's `dir` output to the neighbor (and expects the
  /// symmetric call on the neighbor).  Initializes the output's credit
  /// count to the neighbor's input-buffer depth.
  void connect(Direction dir, Router* neighbor);

  /// Folds credit returns staged by downstream pops this cycle back into
  /// the per-output credit counts (leak-faulted outputs repay their debt
  /// first).  Touches only this router's counters and does nothing when no
  /// return is staged, so flushing a router twice, or routers in any
  /// order, gives the same counts.  Mesh runs it at the end of each
  /// executed cycle, on the coordinator, in every kernel mode, for the
  /// routers its credit dirty lists name.
  void flush_credits();

  /// The list this router appends an upstream neighbor to whenever it
  /// stages a credit return on it, so the end-of-cycle flush visits only
  /// routers with returns staged.  Owned by the Mesh, one per thread that
  /// ticks routers, with room reserved for every append of a cycle.
  void set_credit_dirty_list(std::vector<Router*>* list) {
    credit_dirty_ = list;
  }

  /// Marks output `out` as a shard boundary: forwarded flits are appended
  /// to `stage` (owned by this router's shard) instead of being delivered
  /// directly, and the coordinator replays them at the cycle barrier.
  /// nullptr reverts to direct delivery.
  void set_boundary(Direction out, std::vector<BoundaryFlit>* stage) {
    boundary_out_[static_cast<int>(out)] = stage;
  }

  /// Available credits for output `out` (tests/diagnostics).  A train
  /// keeps every registered count on its path constant, so this needs no
  /// settling — but it is exact only at cycle boundaries.
  std::uint32_t credits(Direction out) const {
    return credits_[static_cast<int>(out)];
  }

  /// Flits queued in the `from` input buffer (tests/diagnostics).
  std::size_t queued_flits(Direction from) const {
    return inputs_[static_cast<int>(from)].size();
  }

  /// True if the input buffer for `from` can accept a flit (the upstream
  /// credit check).
  bool can_accept(Direction from) const;

  /// Delivers a flit into the `from` input buffer; visible to the router's
  /// allocation logic from cycle `now + 1` (the hop latency).
  /// Precondition: can_accept(from).
  void accept(Direction from, Flit flit, Cycle now);

  /// The local ejection queue the attached network interface drains.
  FlitBurstQueue& eject_queue() { return eject_; }
  const FlitBurstQueue& eject_queue() const { return eject_; }

  /// Registers the component draining the eject queue (the attached NI);
  /// it is woken whenever a flit is ejected toward it.
  void set_local_sink(Component* sink) { local_sink_ = sink; }

  /// One allocation + switch traversal cycle.
  void tick(Cycle now) override;

  /// Quiescent when every input FIFO is empty (arriving flits wake the
  /// router via accept()); otherwise sleeps until the earliest head flit
  /// becomes routable.
  Cycle next_wake(Cycle now) const override;

  // --- Counters for experiments. ---
  /// Settles any train through this router first (see Mesh).
  std::uint64_t flits_routed() const;
  std::uint64_t stall_cycles() const { return stall_cycles_; }

  /// Flits accepted while can_accept(from) was false — a violated credit
  /// (the sender pushed without a free slot, i.e. the NoC was not
  /// lossless).  Always zero on a correct build; the panic_fuzz lossless
  /// oracle asserts this, catching what the Debug-only assert in accept()
  /// cannot in Release/CI builds.
  std::uint64_t credit_violations() const { return credit_violations_; }

  /// Publishes `noc.router.<tile>.*` metrics (tile id = y*k + x).
  void register_telemetry(telemetry::Telemetry& t) override;

  // --- Fault-injection hooks (armed by fault::FaultInjector). ---

  /// Makes input `port` (-1 = every port) flaky until cycle `until`: each
  /// arriving flit is delayed by an extra `delay` cycles with probability
  /// `probability`.  FIFO order within the port is preserved (delivery is
  /// head-gated), so wormhole correctness holds — delayed flits simply
  /// stretch the message's tail.
  void fault_link(int port, double probability, Cycles delay, Cycle until,
                  std::uint64_t seed);

  /// Permanently removes `amount` credits from input `port` (-1 = every
  /// port): the effective buffer shrinks, and a leak >= the buffer depth
  /// wedges the link — upstream backpressure with no forward progress,
  /// exactly what the watchdog exists to flag.
  void fault_leak_credits(int port, std::uint32_t amount);

  // --- Watchdog probes (fault/watchdog.h). ---
  std::uint64_t progress() const { return flits_routed(); }
  bool has_pending_flits() const {
    for (const auto& q : inputs_) {
      if (!q.empty()) return true;
    }
    return false;
  }

  std::uint64_t flits_delayed() const { return flits_delayed_; }

 private:
  friend class Mesh;  // forms, carries and hands back wormhole trains

  /// Whether output `dir` is productive and permitted for a flit to `dst`
  /// under the configured routing algorithm (tile id = y*k + x).
  bool permitted(Direction dir, EngineId dst) const;

  /// The one output XY routing permits for a flit to `dst` here.
  Direction xy_output(EngineId dst) const;

  /// True if the downstream of output `out` can accept a flit now: a
  /// registered credit for mesh outputs, live eject-queue occupancy for
  /// kLocal (the NI is always on this router's tile/shard).
  bool downstream_ready(Direction out) const;

  /// Sends `flit` out of `out` (spends the output's credit).
  void forward(Direction out, Flit flit, Cycle now);

  /// Called by the downstream router when it pops a flit we forwarded
  /// (it also lists us as dirty): stages one credit back for output `out`,
  /// visible after the next flush_credits().  Single writer per element —
  /// only the neighbor on `out` calls this, so it is race-free across
  /// shards.
  void stage_credit_return(Direction out) {
    ++returns_staged_[static_cast<int>(out)];
  }

  int x_;
  int y_;
  int k_;
  RoutingAlgo algo_;

  /// Input FIFOs store flit bursts (contiguous runs of one message as a
  /// single descriptor); capacity and credits are still counted in flits.
  std::array<FlitBurstQueue, kNumPorts> inputs_;
  std::array<Router*, kNumPorts> neighbors_{};
  FlitBurstQueue eject_;
  Component* local_sink_ = nullptr;

  /// Registered flow-control state for the four mesh outputs (kLocal uses
  /// live eject occupancy).  `credits_` is read/written only by this
  /// router's shard plus the coordinator's flush; `returns_staged_[o]` is
  /// written only by the downstream neighbor of output o and consumed by
  /// the flush; `leak_debt_[o]` swallows staged returns after a
  /// fault_leak_credits on the downstream input, making the leak
  /// permanent.
  std::array<std::uint32_t, 4> credits_{};
  std::array<std::uint32_t, 4> returns_staged_{};
  std::array<std::uint32_t, 4> leak_debt_{};
  std::vector<Router*>* credit_dirty_ = nullptr;  ///< see set_credit_dirty_list
  /// Per-output shard-boundary staging vector (nullptr = direct delivery).
  std::array<std::vector<BoundaryFlit>*, kNumPorts> boundary_out_{};

  /// Wormhole state: which input currently owns each output (-1 = free).
  std::array<int, kNumPorts> output_owner_;
  /// Round-robin arbitration pointer per output.
  std::array<int, kNumPorts> rr_;
  /// The cycle each output last forwarded a flit (train formation).
  std::array<Cycle, kNumPorts> forwarded_at_;

  /// Ports a wormhole train holds (bit per port): the Mesh carries their
  /// flits, so tick() skips the held outputs and inputs and next_wake
  /// ignores them.  Zero outside the event kernel.
  std::uint8_t held_out_ = 0;
  std::uint8_t held_in_ = 0;
  Mesh* mesh_ = nullptr;  ///< the mesh this router belongs to (trains)

  std::uint64_t flits_routed_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::uint64_t credit_violations_ = 0;

  // --- Fault state (inert — one predicted branch — until armed). ---
  struct PortFault {
    double flaky_p = 0.0;
    Cycles flaky_delay = 0;
    Cycle flaky_until = 0;
    std::uint32_t leaked_credits = 0;
    Rng rng{0};
  };
  std::array<PortFault, kNumPorts> port_faults_{};
  bool faults_armed_ = false;
  std::uint64_t flits_delayed_ = 0;
  std::uint64_t credits_leaked_ = 0;
};

}  // namespace panic::noc
