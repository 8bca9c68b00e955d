#include "rmt/table.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace panic::rmt {

namespace {
std::atomic<std::uint64_t> g_table_epoch{0};
}  // namespace

std::uint64_t table_mutation_epoch() {
  return g_table_epoch.load(std::memory_order_relaxed);
}

void bump_table_mutation_epoch() {
  g_table_epoch.fetch_add(1, std::memory_order_relaxed);
}

MatchTable::MatchTable(std::string name, MatchKind kind,
                       std::vector<Field> key_fields)
    : name_(std::move(name)), kind_(kind), key_fields_(std::move(key_fields)) {
  assert(!key_fields_.empty());
  if (kind_ == MatchKind::kLpm) {
    assert(key_fields_.size() == 1 && "LPM tables take a single key field");
  }
}

std::uint64_t MatchTable::exact_hash(
    const std::vector<std::uint64_t>& key) const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint64_t w : key) {
    h ^= w;
    h *= 0x100000001B3ull;
    h ^= h >> 29;
  }
  return h;
}

void MatchTable::add_entry(TableEntry entry) {
  if (kind_ == MatchKind::kTernary) {
    // Normalize: explicit key words without masks match exactly; missing
    // trailing key words are wildcards.  This lets the single-field
    // helpers be used on multi-field tables ("match the first field,
    // ignore the rest").
    while (entry.masks.size() < entry.key.size()) {
      entry.masks.push_back(~0ull);
    }
    while (entry.key.size() < key_fields_.size()) {
      entry.key.push_back(0);
      entry.masks.push_back(0);
    }
  }
  assert(entry.key.size() == key_fields_.size());
  if (kind_ == MatchKind::kExact) {
    exact_index_[exact_hash(entry.key)] = entries_.size();
  }
  entries_.push_back(std::move(entry));
  bump_table_mutation_epoch();
  if (kind_ == MatchKind::kLpm) {
    // Longest prefix first: sort by descending mask population.
    std::sort(entries_.begin(), entries_.end(),
              [](const TableEntry& a, const TableEntry& b) {
                return __builtin_popcountll(a.masks[0]) >
                       __builtin_popcountll(b.masks[0]);
              });
  } else if (kind_ == MatchKind::kTernary) {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const TableEntry& a, const TableEntry& b) {
                       return a.priority > b.priority;
                     });
  }
}

void MatchTable::add_exact(std::uint64_t key, Action action) {
  TableEntry e;
  e.key = {key};
  e.action = std::move(action);
  add_entry(std::move(e));
}

void MatchTable::add_lpm(std::uint64_t key, int prefix_len, Action action,
                         int width_bits) {
  assert(prefix_len >= 0 && prefix_len <= width_bits);
  TableEntry e;
  std::uint64_t mask = 0;
  if (prefix_len > 0) {
    mask = (~0ull) << (width_bits - prefix_len);
    if (width_bits < 64) mask &= (1ull << width_bits) - 1;
  }
  e.key = {key & mask};
  e.masks = {mask};
  e.action = std::move(action);
  add_entry(std::move(e));
}

void MatchTable::add_ternary(std::uint64_t key, std::uint64_t mask,
                             int priority, Action action) {
  TableEntry e;
  e.key = {key};
  e.masks = {mask};
  e.priority = priority;
  e.action = std::move(action);
  add_entry(std::move(e));
}

const Action* MatchTable::lookup(const Phv& phv, bool* matched) const {
  std::vector<std::uint64_t> key;
  key.reserve(key_fields_.size());
  for (Field f : key_fields_) key.push_back(phv.get(f));

  if (matched != nullptr) *matched = true;
  switch (kind_) {
    case MatchKind::kExact: {
      const auto it = exact_index_.find(exact_hash(key));
      if (it != exact_index_.end() && entries_[it->second].key == key) {
        ++hits_;
        return &entries_[it->second].action;
      }
      break;
    }
    case MatchKind::kLpm: {
      for (const TableEntry& e : entries_) {
        if ((key[0] & e.masks[0]) == e.key[0]) {
          ++hits_;
          return &e.action;
        }
      }
      break;
    }
    case MatchKind::kTernary: {
      for (const TableEntry& e : entries_) {
        bool match = true;
        for (std::size_t i = 0; i < key.size(); ++i) {
          const std::uint64_t mask = i < e.masks.size() ? e.masks[i] : ~0ull;
          if ((key[i] & mask) != (e.key[i] & mask)) {
            match = false;
            break;
          }
        }
        if (match) {
          ++hits_;
          return &e.action;
        }
      }
      break;
    }
  }
  if (matched != nullptr) *matched = false;
  ++misses_;
  return default_action_ ? &*default_action_ : nullptr;
}

}  // namespace panic::rmt
