// Fixed-capacity flit FIFO that stores contiguous flit runs of one message
// as a single descriptor (a "flit burst") instead of one object per flit.
//
// Wormhole switching keeps a message's flits contiguous on every link once
// the head has locked the path, so a router input FIFO holding 190 body
// flits of a 1500-byte frame is representable as one descriptor: first
// flit index, run length, and the per-flit ready cycles as an arithmetic
// sequence (each flit crosses a link one cycle after its predecessor).
//
// The interface is still flit-at-a-time — push_flit/pop_flit move exactly
// one flit, capacity is counted in flits — so routers observe bit-identical
// per-cycle behaviour (credits, stalls, allocation) while the storage cost
// and per-flit copy cost collapse from O(flits) to O(messages).
//
// Merge rule (the equivalence argument, see DESIGN.md): a pushed flit
// joins the newest descriptor only when it is the same message's next flit
// (same dst/total, seq contiguous) AND its ready cycle is exactly one past
// the run's last — precisely the case where per-flit storage would hold
// {ready, ready+1, ...}.  Anything else starts a new descriptor, so the
// head flit's visibility cycle is always exact.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/ids.h"
#include "common/ring_buffer.h"
#include "common/units.h"
#include "noc/flit.h"

namespace panic::noc {

/// A run of `count` contiguous flits of one message, starting at flit
/// index `seq`; flit `seq + i` becomes visible at cycle `ready + i`.
struct FlitBurst {
  EngineId dst;
  /// Outputs the message's head flit may take at the router whose input
  /// holds this burst (bit per noc::Direction), computed once when the
  /// head arrives; 0 for bursts that do not start with the head.
  std::uint8_t route = 0;
  std::uint32_t seq = 0;
  std::uint32_t total = 1;
  std::uint32_t count = 0;
  Cycle ready = 0;
  MessagePtr msg;  ///< attached once the tail flit has joined the run
};
// `route` sits in dst's padding: a descriptor stays half a cache line.
static_assert(sizeof(FlitBurst) == 32);

class FlitBurstQueue {
 public:
  /// `capacity_flits` bounds the queue in flits (the credit unit).
  explicit FlitBurstQueue(std::size_t capacity_flits)
      : capacity_(capacity_flits ? capacity_flits : 1),
        bursts_(capacity_) {}

  bool full() const { return flits_ >= capacity_; }
  bool empty() const { return flits_ == 0; }
  /// Occupancy in flits (what credits are counted in).
  std::size_t size() const { return flits_; }
  std::size_t capacity() const { return capacity_; }
  /// Descriptors held (≤ size(); the compression ratio in telemetry).
  std::size_t bursts() const { return bursts_.size(); }

  /// Enqueues one flit, visible at `ready`; a head flit carries its
  /// `route` (a head never joins an earlier run).  Caller must check
  /// !full().
  void push_flit(Flit flit, Cycle ready, std::uint8_t route = 0) {
    assert(!full());
    if (!bursts_.empty()) {
      FlitBurst& b = bursts_.back();
      if (b.dst == flit.dst && b.total == flit.total &&
          b.seq + b.count == flit.seq && b.ready + b.count == ready) {
        ++b.count;
        ++flits_;
        if (flit.msg != nullptr) b.msg = std::move(flit.msg);
        return;
      }
    }
    FlitBurst b;
    b.dst = flit.dst;
    b.seq = flit.seq;
    b.total = flit.total;
    b.count = 1;
    b.ready = ready;
    b.route = route;
    b.msg = std::move(flit.msg);
    bursts_.push(std::move(b));
    ++flits_;
  }

  /// True if the oldest flit exists and is ready at `now`.
  bool ready(Cycle now) const {
    return flits_ != 0 && bursts_.front().ready <= now;
  }

  /// Dequeues the oldest flit if ready.
  std::optional<Flit> try_pop_flit(Cycle now) {
    if (!ready(now)) return std::nullopt;
    FlitBurst& b = bursts_.front();
    Flit flit(b.dst, b.seq, b.total);
    if (flit.is_tail()) flit.msg = std::move(b.msg);
    ++b.seq;
    --b.count;
    ++b.ready;
    --flits_;
    if (b.count == 0) bursts_.pop();
    return flit;
  }

  /// The burst holding the oldest flit, ready or not.  Precondition:
  /// !empty().
  const FlitBurst& front() const { return bursts_.front(); }

  /// Moves a queue that holds one burst `n` cycles ahead, as if each cycle
  /// popped the oldest flit and pushed the message's next flit one cycle
  /// after the last: the run keeps its length and its seq and ready stamps
  /// shift by n.  This is what a NoC wormhole train does to each queue on
  /// its path (DESIGN.md §5, "Wormhole trains").
  void advance(std::uint32_t n) {
    assert(bursts_.size() == 1);
    FlitBurst& b = bursts_.front();
    b.seq += n;
    b.ready += n;
  }

 private:
  std::size_t capacity_;
  RingBuffer<FlitBurst> bursts_;
  std::size_t flits_ = 0;
};

}  // namespace panic::noc
