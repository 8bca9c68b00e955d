// MessageTracer: opt-in per-message lifecycle tracing.
//
// When enabled, components record compact events (24 bytes, no
// allocation) at the interesting points of a message's life on the NIC:
// RMT classification, NoC hops, scheduler-queue enqueue/dequeue (with the
// slack carried at that moment), service start/end, drops, emits, host
// delivery and wire TX.  Events land in a bounded ring buffer — when it
// fills, the oldest events are overwritten (the tail of a run is usually
// the interesting part) and `dropped()` counts the overwritten ones.
//
// When disabled (the default), `record()` is a single predicted branch;
// the simulator's hot paths pay nothing else.
//
// Exports:
//   * to_chrome_json() — Chrome trace_event JSON ("catapult" format) that
//     loads directly in chrome://tracing and https://ui.perfetto.dev.
//     Each component is a named track; service windows are complete ("X")
//     events, everything else instants; message ids ride in args so one
//     message can be followed across tracks.
//   * events() — the raw chronological event list, used by the golden
//     trace tests to pin exact sequences across kernel modes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace panic::telemetry {

enum class TraceEventKind : std::uint8_t {
  kRmtClassify,   ///< message exits the heavyweight pipeline; arg = next tile
  kNocHop,        ///< message (tail flit) clears a router; arg = dest tile
  kEnqueue,       ///< scheduler-queue admit; arg = slack
  kDequeue,       ///< scheduler-queue dequeue; arg = slack
  kQueueDrop,     ///< scheduler-queue drop (full / evicted); arg = slack
  kServiceStart,  ///< engine starts serving; arg = service cycles
  kServiceEnd,    ///< engine finished serving; arg = service cycles
  kDrop,          ///< message dropped outside a queue (RMT drop, no route)
  kEmit,          ///< engine stages an outbound message; arg = dest tile
  kHostDeliver,   ///< DMA wrote the message to the host; arg = latency
  kTxWire,        ///< frame left the NIC through an Ethernet port
  kFault,         ///< an injected fault touched this message (corruption,
                  ///< dead-engine discard, re-steer); arg = fault detail
};

const char* to_string(TraceEventKind kind);

struct TraceEvent {
  Cycle cycle = 0;
  MessageId msg;
  std::uint32_t arg = 0;
  std::uint16_t where = 0;  ///< interned component name (MessageTracer::name_of)
  TraceEventKind kind = TraceEventKind::kDrop;
};

class MessageTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  bool enabled() const { return enabled_; }

  /// Starts recording into a ring of `capacity` events.  Re-enabling
  /// clears previously recorded events.
  void enable(std::size_t capacity = kDefaultCapacity);
  void clear();

  /// Interns a component name, returning a small id for TraceEvent::where.
  /// Idempotent per distinct name.  Components intern once at
  /// registration, never on the hot path.
  std::uint16_t intern(std::string_view name);

  const std::string& name_of(std::uint16_t where) const {
    return names_[where];
  }

  /// Records one event.  A no-op unless enabled, so the disabled default
  /// stays a single predicted branch.
  void record(TraceEventKind kind, Cycle cycle, MessageId msg,
              std::uint16_t where, std::uint32_t arg = 0) {
    if (!enabled_) return;
    TraceEvent& e = ring_[next_];
    if (count_ == ring_.size()) ++dropped_;  // overwriting the oldest
    e.kind = kind;
    e.cycle = cycle;
    e.msg = msg;
    e.where = where;
    e.arg = arg;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (count_ < ring_.size()) ++count_;
    ++recorded_;
  }

  /// Events recorded since enable()/clear() (including overwritten ones).
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring overwrite.
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return ring_.size(); }

  /// The retained events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON; `clock` converts cycles to wall time.
  std::string to_chrome_json(Frequency clock) const;

  /// Writes to_chrome_json() to `path`; false (and a kWarn) on failure.
  bool write_chrome_json(const std::string& path, Frequency clock) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;   ///< slot the next event lands in
  std::size_t count_ = 0;  ///< live events in the ring
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;

  std::vector<std::string> names_{"?"};  // index 0 = unknown
};

}  // namespace panic::telemetry
