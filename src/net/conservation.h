// ConservationLedger: the end-to-end message conservation invariant.
//
// Every message the simulation creates must end its life with an explicit
// fate: delivered (host ring / wire), dropped (a policy drop at the
// logical scheduler — the only legal drop point, §3.1.2), consumed
// (terminally processed, e.g. a DMA request absorbed after its completion
// was emitted), or faulted (destroyed because of an *injected* fault).  A
// message destroyed with no fate is LOST — a silent leak somewhere in the
// NIC — and fails any run with the invariant checker armed
// (fault/invariants.h).
//
// The ledger is a process-wide tally fed by the MessagePool: make_message
// counts creation, and the pool's release() reads Message::fate at the
// moment of destruction.  The hot-path cost is a handful of increments on
// paths that already touch the pool.  Like the pool it is a leaky
// singleton; tests and benches reset() it at the start of a measured run.
// Tallies are relaxed atomics: the ledger is shared by every simulator in
// the process, and those may run on different threads; per-fate totals
// are order-independent sums.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/message.h"

namespace panic {

class ConservationLedger {
 public:
  struct Report {
    std::uint64_t created = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t consumed = 0;
    std::uint64_t faulted = 0;
    std::uint64_t shed = 0;  ///< degraded-mode backpressure overflow
    std::uint64_t lost = 0;  ///< destroyed while still kInFlight
    std::uint64_t live = 0;  ///< created but not yet destroyed

    /// The conservation property: every created message is accounted for
    /// by exactly one of the terminal fates or is still live, and nothing
    /// was destroyed fate-less.
    bool conserved() const {
      return lost == 0 &&
             created == delivered + dropped + consumed + faulted + shed + live;
    }

    std::string to_string() const;
  };

  /// The process-wide ledger (leaky singleton, like MessagePool).
  static ConservationLedger& instance();

  /// Zeroes all tallies.  Live messages created before the reset will
  /// still tally their fate on destruction; callers that want a clean
  /// window reset between runs, when nothing is in flight.
  void reset();

  /// Called by make_message().
  void on_create() { created_.fetch_add(1, std::memory_order_relaxed); }

  /// Called by MessagePool::release with the dying message's fate.
  void on_destroy(MessageFate fate) noexcept {
    switch (fate) {
      case MessageFate::kInFlight:
        lost_.fetch_add(1, std::memory_order_relaxed);
        break;
      case MessageFate::kDelivered:
        delivered_.fetch_add(1, std::memory_order_relaxed);
        break;
      case MessageFate::kDropped:
        dropped_.fetch_add(1, std::memory_order_relaxed);
        break;
      case MessageFate::kConsumed:
        consumed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case MessageFate::kFaulted:
        faulted_.fetch_add(1, std::memory_order_relaxed);
        break;
      case MessageFate::kShed:
        shed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    destroyed_.fetch_add(1, std::memory_order_relaxed);
  }

  Report report() const;

  std::uint64_t created() const {
    return created_.load(std::memory_order_relaxed);
  }
  std::uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }

 private:
  ConservationLedger() = default;
  ~ConservationLedger() = delete;  // leaky: reachable until process exit

  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> destroyed_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::uint64_t> faulted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> lost_{0};
};

}  // namespace panic
