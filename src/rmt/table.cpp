#include "rmt/table.h"

#include <algorithm>
#include <cassert>

namespace panic::rmt {

MatchTable::MatchTable(std::string name, MatchKind kind,
                       std::vector<Field> key_fields)
    : name_(std::move(name)),
      kind_(kind),
      key_fields_(std::move(key_fields)),
      exact_index_(0, KeyHash{key_fields_.size()}) {
  assert(!key_fields_.empty() && key_fields_.size() <= kMaxKeyFields);
}

std::size_t MatchTable::KeyHash::operator()(const KeyWords& key) const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < width; ++i) {
    h ^= key[i];
    h *= 0x100000001B3ull;
    h ^= h >> 29;
  }
  return h;
}

void MatchTable::add_entry(TableEntry entry) {
  for (std::size_t i = 0; i < kMaxKeyFields; ++i) {
    if (i >= key_fields_.size()) {
      entry.mask[i] = 0;
    } else if (kind_ == MatchKind::kExact) {
      entry.mask[i] = ~0ull;
    }
    entry.key[i] &= entry.mask[i];
  }
  if (kind_ == MatchKind::kExact) {
    exact_index_[entry.key] = entries_.size();
    entries_.push_back(std::move(entry));
    return;
  }
  // After every entry of the same or a higher priority.
  const auto at = std::upper_bound(
      entries_.begin(), entries_.end(), entry.priority,
      [](int priority, const TableEntry& e) { return priority > e.priority; });
  entries_.insert(at, std::move(entry));
}

const TableEntry* MatchTable::match(const KeyWords& key) const {
  if (kind_ == MatchKind::kExact) {
    const auto it = exact_index_.find(key);
    return it != exact_index_.end() ? &entries_[it->second] : nullptr;
  }
  const std::size_t width = key_fields_.size();
  for (const TableEntry& e : entries_) {
    std::size_t i = 0;
    while (i < width && (key[i] & e.mask[i]) == e.key[i]) ++i;
    if (i == width) return &e;
  }
  return nullptr;
}

const Action* MatchTable::lookup(const Phv& phv, bool* matched) const {
  KeyWords key{};
  for (std::size_t i = 0; i < key_fields_.size(); ++i) {
    key[i] = phv.get(key_fields_[i]);
  }
  const TableEntry* entry = match(key);
  if (matched != nullptr) *matched = entry != nullptr;
  if (entry == nullptr) {
    ++misses_;
    return default_action();
  }
  ++hits_;
  return &entry->action;
}

}  // namespace panic::rmt
