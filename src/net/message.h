// The unified message abstraction (§3.1): Ethernet frames, DMA
// reads/writes, descriptor fetches, RDMA operations and interrupts are all
// `Message`s travelling on the same on-chip network.  This is the paper's
// key insight enabling a single unified NoC (footnote 1: separate networks
// waste idle wires).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "net/chain_header.h"

namespace panic {

enum class MessageKind : std::uint8_t {
  kPacket = 0,       // an Ethernet frame (RX or TX)
  kDmaRead,          // engine -> DMA: read from host memory
  kDmaWrite,         // engine -> DMA: write to host memory
  kDmaCompletion,    // DMA -> engine: data / ack
  kDescriptorFetch,  // driver descriptor ring read
  kInterrupt,        // DMA/PCIe -> host interrupt
  kRdmaRequest,      // RDMA engine operation
  kDoorbell,         // host driver MMIO write (TX descriptors posted)
};

const char* to_string(MessageKind kind);

/// What ultimately happened to a message.  Every code path that destroys a
/// MessagePtr must first declare the message's fate; the conservation
/// ledger (net/conservation.h) tallies fates at recycle time, and a
/// message destroyed while still kInFlight counts as *lost* — the
/// end-to-end invariant violation the fault subsystem exists to catch.
enum class MessageFate : std::uint8_t {
  kInFlight = 0,  ///< not yet decided (the only illegal fate at destroy)
  kDelivered,     ///< reached the host or left on the wire
  kDropped,       ///< policy drop (scheduler queue, RMT program, no route)
  kConsumed,      ///< terminally processed (request absorbed, reply emitted)
  kFaulted,       ///< destroyed because of an injected fault (dead engine,
                  ///< re-steer with no fallback) — attributed, not lost
  kShed,          ///< shed by degraded-mode admission: no live route and the
                  ///< bounded backpressure buffer was full (on_no_route)
};

const char* to_string(MessageFate fate);

/// Metadata extracted by the RMT parser and carried with the message while
/// it is on the NIC.  Engines read these fields instead of re-parsing raw
/// bytes on every hop (the hardware analogue: the PHV travels with the
/// packet through the chain header's metadata words).
struct MessageMeta {
  bool has_ipv4 = false;
  bool has_udp = false;
  bool has_tcp = false;
  bool is_esp = false;   // IPSec-encapsulated (needs decrypt pass)
  bool is_kvs = false;   // carries the KVS application header
  bool from_wan = false; // classified as WAN traffic (needs IPSec on TX)
  std::uint8_t ip_proto = 0;
  std::uint16_t udp_dst_port = 0;
  std::uint8_t kvs_op = 0;
  std::uint64_t kvs_key = 0;
  std::uint32_t kvs_request_id = 0;
  std::uint8_t cache_hint = 0;  ///< engine-local marker (regex match, ...)
};

struct Message {
  MessageId id;
  MessageKind kind = MessageKind::kPacket;

  /// Raw wire bytes for packets; payload/descriptor bytes for DMA ops.
  std::vector<std::uint8_t> data;

  TenantId tenant;

  /// The PANIC chain header: remaining engine hops + per-hop slack.
  ChainHeader chain;

  /// Scheduling slack at the engine currently processing the message
  /// (copied from the chain hop on arrival; lower = more urgent).
  std::uint32_t slack = 0;

  /// Parsed metadata (valid once `meta_valid`).
  MessageMeta meta;
  bool meta_valid = false;

  /// For request/response message kinds (DMA, RDMA): the engine to send
  /// the completion to.
  EngineId reply_to;
  /// DMA descriptor: host address and length.  The address space is
  /// synthetic (the host-memory model hashes it to deterministic content).
  std::uint64_t dma_addr = 0;
  std::uint32_t dma_bytes = 0;

  /// Ethernet port the packet arrived on / should leave from.
  EngineId ingress_port;
  EngineId egress_port;

  /// True for packets originating from the host (TX path): the RMT
  /// program routes them toward the wire instead of back to the host.
  bool from_host = false;

  // --- Bookkeeping for experiments (not part of the architecture). ---
  Cycle created_at = 0;       ///< when the workload generated it
  Cycle nic_ingress_at = 0;   ///< when it entered the NIC
  std::uint32_t rmt_passes = 0;  ///< heavyweight pipeline traversals (E6)
  std::uint32_t noc_hops = 0;    ///< mesh router hops taken
  std::uint32_t engines_visited = 0;  ///< offload engines that processed it

  // --- Pool bookkeeping (see net/message_pool.h). ---
  Message* pool_next = nullptr;  ///< free-list link while pooled
  bool in_pool = false;          ///< guards against double-recycle

  /// Conservation accounting (see net/conservation.h).  First fate wins:
  /// set through set_fate() at the point that decides the outcome.
  MessageFate fate = MessageFate::kInFlight;

  /// Declares the message's fate if none is set yet (a message delivered
  /// inside process() keeps kDelivered even though the generic consumed
  /// mark runs afterwards).
  void set_fate(MessageFate f) {
    if (fate == MessageFate::kInFlight) fate = f;
  }

  /// Bytes the message occupies on the on-chip network: payload plus the
  /// chain header it carries.
  std::size_t wire_size() const { return data.size() + chain.wire_size(); }

  std::size_t size() const { return data.size(); }

  /// Restores the default-constructed state while keeping the capacity of
  /// `data` and the chain's hop vector — the point of pooling is that a
  /// recycled message's buffers are reused, not reallocated.
  void reset_for_reuse();
};

/// Returns the message to the process-wide MessagePool instead of freeing
/// it.  Being MessagePtr's deleter, every place that destroys a MessagePtr
/// — host delivery, wire TX, drops, DMA completions, baselines — recycles
/// automatically.
struct MessageDeleter {
  void operator()(Message* msg) const noexcept;
};

using MessagePtr = std::unique_ptr<Message, MessageDeleter>;

/// Allocates a message with a fresh process-wide unique id, recycling a
/// pooled Message when one is available.
MessagePtr make_message(MessageKind kind = MessageKind::kPacket);

/// Explicitly returns `msg` to the pool (equivalent to destroying it).
void recycle_message(MessagePtr msg);

}  // namespace panic
