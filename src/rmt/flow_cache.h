// Flow-signature resolution cache: memoizes the match+action resolution of
// the RMT pipeline per flow signature (ISSUE 8; Laminar/SuperNIC-style
// hot-flow cache in front of the heavyweight lookup path).
//
// The cache is a *host wall-clock* optimization only — it is semantically
// invisible.  A hit replays the memoized outcome (field writes, chain
// header, per-table hit/miss tallies) instead of walking every stage's
// tables, but the message still pays the full simulated pipeline latency
// and bumps the same counters, so cache-on and cache-off runs are
// bit-identical in all observable stats across both kernels.
//
// Correct by construction:
//   - The key mask is derived from the compiled program: the union of every
//     table's key fields and every field any action primitive *reads*
//     (kCopyField/kHashFields sources, kEvalExpr operands, the implicit
//     kMetaSlack read of chain-hop pushes).
//     Every PHV value the resolution can depend on is therefore part of
//     the signature; equal signatures imply an identical resolution.
//   - Programs with the stateful register primitive (kRegAdd) are not
//     memoizable — the cache deactivates itself.
//   - Entries store the full key-field values, not just the hash: the hash
//     only selects the set, so collisions can never corrupt a lookup.
//   - Invalidation is exact and cycle-deterministic: the
//     SteeringDirectory generation is compared once per processed message;
//     any movement flushes the cache, so a cached chain can never
//     resurrect a dead engine.  Tables do not change once compiled: the
//     program is shared as const.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/steering.h"
#include "net/chain_header.h"
#include "rmt/pipeline.h"

namespace panic::rmt {

struct FlowCacheConfig {
  bool enabled = true;
  std::uint32_t sets = 64;
  std::uint32_t ways = 4;
};

/// The memoized outcome of one full pipeline resolution.
struct CachedResolution {
  /// Every (field, value) the stages wrote, in field order — replayed via
  /// Phv::set so the post-action PHV (and thus drop/queue/meta/deparse) is
  /// identical to a real walk.
  std::vector<std::pair<Field, std::uint64_t>> writes;
  /// The chain the actions built (empty when no chain action ran).
  ChainHeader chain;
  /// Per-table matched flag in program order, for replaying the tables'
  /// hit/miss tallies.
  std::vector<std::uint8_t> table_matched;
};

class FlowCache {
 public:
  FlowCache(const FlowCacheConfig& config, const RmtProgram& program);

  /// Union of table key fields and action-read fields as a Field bitmask.
  /// Sets *cacheable to false when the program uses stateful registers.
  static std::uint64_t derive_key_mask(const RmtProgram& program,
                                       bool* cacheable);

  /// False when the program is not memoizable (stateful registers): every
  /// lookup misses and nothing is inserted.
  bool active() const { return active_; }
  std::uint64_t key_mask() const { return key_mask_; }
  const std::vector<Field>& key_fields() const { return key_fields_; }

  /// The steering directory whose generation gates cached chains (may be
  /// null when no fault machinery is attached).  Snapshots the current
  /// generation so only *later* re-steers flush.
  void set_steering(const fault::SteeringDirectory* steering) {
    steering_ = steering;
    steering_gen_ =
        steering_ != nullptr ? steering_->generation() : 0;
  }

  /// Compares the steering generation against the last seen stamp;
  /// flushes when it moved.  Called once per processed message, before
  /// lookup.
  void refresh_generations();

  /// Looks up the signature in the pre-action PHV.  On a hit returns the
  /// memoized resolution (and touches LRU state); on a miss returns null
  /// and latches the set/key for the insert() that follows.
  const CachedResolution* lookup(const Phv& phv);

  /// Fills the entry latched by the last missing lookup(): captures the
  /// post-action writes from `final_phv`, the built chain, and the
  /// per-table matched flags.  LRU eviction within the set.
  void insert(const std::vector<std::uint8_t>& table_matched,
              const Phv& final_phv, const ChainHeader& chain);

  void flush();

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t flushes = 0;
  };
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t last_used = 0;  // LRU tick within the set
    std::vector<std::uint64_t> key;
    CachedResolution res;
  };

  bool active_ = false;
  std::uint32_t sets_ = 1;
  std::uint32_t ways_ = 1;
  std::uint64_t key_mask_ = 0;
  std::vector<Field> key_fields_;
  std::vector<Entry> entries_;  // sets_ * ways_, row-major per set

  const fault::SteeringDirectory* steering_ = nullptr;
  std::uint64_t steering_gen_ = 0;

  std::uint64_t tick_ = 0;
  std::size_t pending_set_ = 0;
  std::vector<std::uint64_t> key_scratch_;

  Counters counters_;
};

}  // namespace panic::rmt
