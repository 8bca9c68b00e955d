// Match+action tables: exact, longest-prefix and ternary match kinds over
// one or more PHV fields.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rmt/action.h"
#include "rmt/phv.h"

namespace panic::rmt {

/// Process-wide table-mutation epoch.  Every entry insertion or
/// default-action change on any MatchTable bumps it; the flow cache
/// (rmt/flow_cache.h) compares the stamp once per processed message and
/// flushes when it moved, so memoized resolutions can never outlive the
/// tables they were derived from.  Relaxed atomic: the epoch is
/// process-wide, shared by every Simulator in the process, and those may
/// run on different threads.
std::uint64_t table_mutation_epoch();
void bump_table_mutation_epoch();

enum class MatchKind : std::uint8_t { kExact, kLpm, kTernary };

/// One table entry.  For kExact, `masks` is ignored.  For kLpm (single key
/// field), `masks[0]` holds the prefix mask.  For kTernary, entries are
/// matched in descending `priority` order.
struct TableEntry {
  std::vector<std::uint64_t> key;
  std::vector<std::uint64_t> masks;
  int priority = 0;
  Action action;
};

class MatchTable {
 public:
  MatchTable(std::string name, MatchKind kind, std::vector<Field> key_fields);

  const std::string& name() const { return name_; }
  MatchKind kind() const { return kind_; }
  const std::vector<Field>& key_fields() const { return key_fields_; }
  std::size_t size() const { return entries_.size(); }
  /// Read-only entry view (flow-cache key-mask derivation walks actions).
  const std::vector<TableEntry>& entries() const { return entries_; }

  /// Adds an entry.  Preconditions: key size matches the table's key
  /// fields; for kLpm the table has exactly one key field.
  void add_entry(TableEntry entry);

  /// Convenience for exact tables with a single key field.
  void add_exact(std::uint64_t key, Action action);

  /// Convenience for LPM tables: match the top `prefix_len` bits of a
  /// `width_bits`-wide value.
  void add_lpm(std::uint64_t key, int prefix_len, Action action,
               int width_bits = 32);

  /// Convenience for ternary tables with a single key field.
  void add_ternary(std::uint64_t key, std::uint64_t mask, int priority,
                   Action action);

  /// Action to run when nothing matches (defaults to no-op / miss).
  void set_default_action(Action action) {
    default_action_ = std::move(action);
    bump_table_mutation_epoch();
  }
  const Action* default_action() const {
    return default_action_ ? &*default_action_ : nullptr;
  }

  /// Looks up the PHV; returns the matching entry's action, the default
  /// action on miss, or nullptr when there is no default either.  When
  /// `matched` is non-null it is set to whether an entry matched (the
  /// hit/miss tally outcome), so callers can memoize and later replay the
  /// tally via record_lookup().
  const Action* lookup(const Phv& phv, bool* matched = nullptr) const;

  /// Replays the hit/miss accounting of a memoized lookup without
  /// performing it (flow-cache hit path) — keeps table tallies identical
  /// between cache-on and cache-off runs.
  void record_lookup(bool matched) const {
    if (matched) {
      ++hits_;
    } else {
      ++misses_;
    }
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint64_t exact_hash(const std::vector<std::uint64_t>& key) const;

  std::string name_;
  MatchKind kind_;
  std::vector<Field> key_fields_;
  std::vector<TableEntry> entries_;
  /// Exact-match index: hash of key words -> entry index.
  std::unordered_map<std::uint64_t, std::size_t> exact_index_;
  std::optional<Action> default_action_;

  /// Tallies, mutable because lookups are const: the compiled RmtProgram
  /// (and its tables) is shared read-only by every RMT engine.
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace panic::rmt
