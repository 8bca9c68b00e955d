// Free-list recycler behind make_message()/recycle_message().
//
// The simulation hot path (line-rate forwarding through the mesh, §3.1.2)
// creates and destroys one Message per frame, DMA op and interrupt.  With a
// plain heap allocation per message the saturated regime is dominated by
// allocator traffic; the pool caps steady-state allocations at zero by
// recycling Message objects — including the capacity of their `data`
// buffers and chain-hop vectors — through a LIFO free list.
//
// Ownership rules (see DESIGN.md §Hot-path memory model):
//   * make_message() is the only way to create a Message; it pops the free
//     list (pool hit) or heap-allocates (pool miss) and always assigns a
//     fresh process-wide id.
//   * MessagePtr's deleter returns the Message to the pool, so every
//     existing sink — host delivery, wire TX, queue drops, DMA completions,
//     baselines — recycles automatically when the unique_ptr dies.
//   * The pool is a leaky process-wide singleton: it outlives every
//     simulator and stays reachable at exit (leak-checker clean).
//   * All entry points are thread-safe behind one mutex: the pool is
//     shared by every simulator in the process, and those may run on
//     different threads.  The lock is short (pointer swaps) and
//     uncontended while one simulator runs.  Whether an allocation is a
//     pool hit or a miss depends on what earlier runs in the process left
//     on the free list, which is why the kernel.alloc.* gauges are
//     excluded from the differential oracles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace panic {

struct Message;

class MessagePool {
 public:
  struct Stats {
    std::uint64_t pool_hits = 0;     ///< acquisitions served from the free list
    std::uint64_t pool_misses = 0;   ///< acquisitions that hit the heap
    std::uint64_t recycled = 0;      ///< messages returned to the free list
    std::uint64_t bytes_reused = 0;  ///< data-buffer capacity handed back out
    std::uint64_t live = 0;          ///< messages currently outside the pool
    std::uint64_t live_high_watermark = 0;
    std::uint64_t prewarmed = 0;     ///< messages pre-allocated via reserve()
  };

  /// The process-wide pool (leaky singleton; never destroyed).
  static MessagePool& instance();

  /// Pops a recycled Message (reset, retaining buffer capacity) or
  /// heap-allocates one.  Does NOT assign an id — make_message() does.
  Message* acquire();

  /// Returns `msg` to the free list.  Called by MessageDeleter.  A
  /// double-recycle (two owners freeing the same message) corrupts the
  /// free list, so it aborts the process in every build type — Release
  /// included.  Also tallies the message's fate into the
  /// ConservationLedger (net/conservation.h).
  void release(Message* msg) noexcept;

  /// Point-in-time copy (by value: the cells mutate under the pool's own
  /// lock, so handing out a reference would be a torn read while a
  /// simulator on another thread uses the pool).
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  std::size_t free_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_count_;
  }

  /// Frees the entire free list (tests that want a cold pool).  Live
  /// messages are unaffected.
  void trim();

  /// Pre-warms the free list up to `target` entries, so a saturated run
  /// takes no `Message` from the heap (pool-miss-free from cycle 0, not
  /// just after warmup).  The messages are minted empty: each one's
  /// `data` and `chain` buffers are allocated on its first use, so the
  /// run's working set still reaches the heap.  Only the free list and
  /// the `prewarmed` stat are touched — live/recycled accounting and the
  /// conservation ledger never see these messages until they are
  /// acquired normally.  No-op when the free list already holds `target`
  /// or more.
  void reserve(std::size_t target);

 private:
  MessagePool() = default;
  ~MessagePool() = delete;  // leaky: reachable until process exit

  /// Free list threaded through the messages themselves (Message::pool_next)
  /// so the pool needs no side storage that could reallocate.
  mutable std::mutex mu_;
  Message* free_head_ = nullptr;
  std::size_t free_count_ = 0;
  Stats stats_;
};

}  // namespace panic
