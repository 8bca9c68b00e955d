// Match+action tables over one or more PHV fields.  Every table has one
// entry layout: a value and a mask word per key field, and a priority.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rmt/action.h"
#include "rmt/phv.h"

namespace panic::rmt {

/// The widest key a table takes; lookup gathers keys into fixed storage.
inline constexpr std::size_t kMaxKeyFields = 8;

/// Key or mask words, one per key field; words past the key width are 0.
using KeyWords = std::array<std::uint64_t, kMaxKeyFields>;

/// kExact tables find entries through an index of their key words.
/// kTernary tables match entries in descending `priority` order, and in
/// insertion order within a priority; p4lite compiles an lpm table to a
/// ternary one whose entry priorities are prefix lengths.
enum class MatchKind : std::uint8_t { kExact, kTernary };

/// One table entry.  An entry matches a key when every key word agrees
/// with `key` on the bits `mask` sets; an exact table's masks are all
/// ones.
struct TableEntry {
  KeyWords key{};
  KeyWords mask{};
  int priority = 0;
  Action action;
};

class MatchTable {
 public:
  /// Precondition: 1..kMaxKeyFields key fields.
  MatchTable(std::string name, MatchKind kind, std::vector<Field> key_fields);

  const std::string& name() const { return name_; }
  MatchKind kind() const { return kind_; }
  const std::vector<Field>& key_fields() const { return key_fields_; }
  std::size_t size() const { return entries_.size(); }
  /// Read-only entry view (flow-cache key-mask derivation walks actions).
  const std::vector<TableEntry>& entries() const { return entries_; }

  /// Adds an entry; words past the key width are ignored.  An exact table
  /// sets the entry's masks to all ones, and a later entry with the same
  /// key replaces an earlier one in the index.
  void add_entry(TableEntry entry);

  /// Action to run when nothing matches (defaults to no-op / miss).
  void set_default_action(Action action) {
    default_action_ = std::move(action);
  }
  const Action* default_action() const {
    return default_action_ ? &*default_action_ : nullptr;
  }

  /// Looks up the PHV; returns the matching entry's action, the default
  /// action on miss, or nullptr when there is no default either.  When
  /// `matched` is non-null it is set to whether an entry matched (the
  /// hit/miss tally outcome), so callers can memoize and later replay the
  /// tally via record_lookup().  Allocates nothing.
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
  /// Hashes the key's first `width` words; the rest are always 0.
  struct KeyHash {
    std::size_t width;
    std::size_t operator()(const KeyWords& key) const;
  };

  const TableEntry* match(const KeyWords& key) const;

  std::string name_;
  MatchKind kind_;
  std::vector<Field> key_fields_;
  std::vector<TableEntry> entries_;
  /// Exact-match index: key words -> entry index.
  std::unordered_map<KeyWords, std::size_t, KeyHash> exact_index_;
  std::optional<Action> default_action_;

  /// Tallies, mutable because lookups are const: the compiled RmtProgram
  /// (and its tables) is shared read-only by every RMT engine.
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace panic::rmt
