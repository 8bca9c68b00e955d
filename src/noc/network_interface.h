// Network interface (NI): the shim between an engine and its mesh router.
// Segments outgoing messages into flits at the channel bit width, feeds
// them into the router's local input port at one flit per cycle, and
// reassembles arriving flits back into messages.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fifo.h"
#include "common/units.h"
#include "noc/flit.h"
#include "noc/router.h"
#include "sim/component.h"
#include "sim/timed_queue.h"

namespace panic::noc {

class Mesh;

class NetworkInterface : public Component {
 public:
  /// `tile` — this NI's address; `channel_bits` — mesh channel width;
  /// `inject_depth` — how many *messages* may be queued for injection
  /// before `can_inject` goes false (engine-side backpressure).
  NetworkInterface(EngineId tile, std::uint32_t channel_bits,
                   Router* router, std::size_t inject_depth = 4);

  EngineId tile() const { return tile_; }

  /// Registers the component consuming reassembled messages (normally the
  /// engine on this tile); it is woken whenever try_receive has work.
  void set_client(Component* client) { client_ = client; }

  /// True if another message can be queued for injection.
  bool can_inject() const { return pending_.size() < inject_depth_; }

  /// Queues `msg` for transmission to `dst`.  Precondition: can_inject().
  void inject(MessagePtr msg, EngineId dst, Cycle now);

  /// Returns a fully reassembled incoming message, or nullptr.
  MessagePtr try_receive(Cycle now);

  /// Pushes at most one flit per cycle into the router and drains at most
  /// one ejected flit per cycle (matching the single local port).
  void tick(Cycle now) override;

  /// Quiescent when there is nothing to segment and nothing to eject;
  /// inject() and the router's eject path wake it.
  Cycle next_wake(Cycle now) const override;

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_received() const { return messages_received_; }
  /// Settles a train this NI injects first (see Mesh).
  std::uint64_t flits_sent() const;

  /// Publishes `noc.ni.<tile>.*` metrics.
  void register_telemetry(telemetry::Telemetry& t) override;

 private:
  friend class Mesh;  // forms, carries and hands back wormhole trains

  struct PendingMessage {
    MessagePtr msg;
    EngineId dst;
    std::uint32_t total_flits = 0;
    std::uint32_t sent_flits = 0;
  };

  EngineId tile_;
  std::uint32_t channel_bits_;
  Router* router_;
  std::size_t inject_depth_;
  Component* client_ = nullptr;

  /// Segmentation in progress.  can_inject() advertises `inject_depth_` as
  /// the backpressure bound, but callers that pre-date the bound (tests,
  /// drivers pushing bursts) may exceed it, so the storage grows.
  Fifo<PendingMessage> pending_;
  /// Reassembled messages awaiting the engine.  Logically unbounded (the
  /// engine's scheduler queue does the dropping), so its high watermark is
  /// published as growth telemetry.
  TimedQueue<MessagePtr> received_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t flits_sent_ = 0;

  // --- Wormhole trains (Mesh).  Inert outside the event kernel. ---
  Mesh* mesh_ = nullptr;
  /// Where the NI lists itself after injecting a body flit of a message
  /// long enough to carry as a train; nullptr when trains cannot form.
  std::vector<NetworkInterface*>* train_candidates_ = nullptr;
  /// A train holds the injection side through `inject_held_until_` (the
  /// cycle before the tail flit goes out) and/or the ejection side; tick
  /// skips held sides and next_wake ignores them.
  bool inject_held_ = false;
  bool eject_held_ = false;
  Cycle inject_held_until_ = 0;
  Cycle ejected_at_ = kNeverWake;  ///< the cycle a flit last left eject_
};

}  // namespace panic::noc
