#include "rmt/flow_cache.h"

#include <algorithm>

namespace panic::rmt {

static_assert(kFieldCount <= 64,
              "flow-signature key mask packs Field indices into a uint64");

namespace {

void mask_in(std::uint64_t& mask, Field f) {
  if (f != Field::kCount) mask |= 1ull << static_cast<std::size_t>(f);
}

/// Fields an action primitive *reads*.  Writes don't enter the signature:
/// written values are pure functions of earlier reads, and every read of a
/// not-yet-written field resolves against the pre-action PHV — which the
/// signature covers (see header).
void collect_reads(const ActionPrimitive& p, std::uint64_t& mask,
                   bool* cacheable) {
  switch (p.op) {
    case ActionOp::kNoop:
    case ActionOp::kSetField:
    case ActionOp::kSetSlack:
    case ActionOp::kMarkDrop:
    case ActionOp::kClearChain:
      break;
    case ActionOp::kCopyField:
      mask_in(mask, p.src);
      break;
    case ActionOp::kHashFields:
      mask_in(mask, p.src);
      mask_in(mask, p.src2);
      break;
    case ActionOp::kPushChainHop:
      mask_in(mask, Field::kMetaSlack);
      break;
    case ActionOp::kPushChainHopFromField:
      mask_in(mask, p.src);
      mask_in(mask, Field::kMetaSlack);
      break;
    case ActionOp::kRegAdd:
      // Stateful: the resolution depends on register contents, which the
      // signature cannot cover.
      *cacheable = false;
      break;
    case ActionOp::kEvalExpr:
      // Pure over the PHV: every field the expression reads joins the
      // signature, so the cached result stays a function of the key.
      for (const std::uint32_t slot : p.expr->reads()) {
        mask_in(mask, static_cast<Field>(slot));
      }
      break;
  }
}

}  // namespace

std::uint64_t FlowCache::derive_key_mask(const RmtProgram& program,
                                         bool* cacheable) {
  *cacheable = true;
  std::uint64_t mask = 0;
  for (const Stage& stage : program.stages) {
    for (const MatchTable& table : stage.tables) {
      for (Field f : table.key_fields()) mask_in(mask, f);
      // Action reads: every entry's action plus the default action.
      for (const TableEntry& entry : table.entries()) {
        for (const ActionPrimitive& p : entry.action.primitives) {
          collect_reads(p, mask, cacheable);
        }
      }
      if (const Action* def = table.default_action()) {
        for (const ActionPrimitive& p : def->primitives) {
          collect_reads(p, mask, cacheable);
        }
      }
    }
  }
  return mask;
}

FlowCache::FlowCache(const FlowCacheConfig& config, const RmtProgram& program)
    : sets_(std::max<std::uint32_t>(1, config.sets)),
      ways_(std::max<std::uint32_t>(1, config.ways)) {
  key_mask_ = derive_key_mask(program, &active_);
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if ((key_mask_ >> i) & 1) key_fields_.push_back(static_cast<Field>(i));
  }
  entries_.resize(static_cast<std::size_t>(sets_) * ways_);
  key_scratch_.reserve(key_fields_.size());
}

void FlowCache::refresh_generations() {
  if (!active_) return;
  const std::uint64_t gen =
      steering_ != nullptr ? steering_->generation() : 0;
  if (gen == steering_gen_) return;
  steering_gen_ = gen;
  flush();
}

void FlowCache::flush() {
  for (Entry& e : entries_) e.valid = false;
  ++counters_.flushes;
}

const CachedResolution* FlowCache::lookup(const Phv& phv) {
  if (!active_) return nullptr;
  key_scratch_.clear();
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (Field f : key_fields_) {
    const std::uint64_t v = phv.get(f);
    key_scratch_.push_back(v);
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  pending_set_ = static_cast<std::size_t>(h % sets_);
  ++tick_;
  Entry* base = &entries_[pending_set_ * ways_];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Entry& e = base[w];
    if (e.valid && e.key == key_scratch_) {
      e.last_used = tick_;
      ++counters_.hits;
      return &e.res;
    }
  }
  ++counters_.misses;
  return nullptr;
}

void FlowCache::insert(const std::vector<std::uint8_t>& table_matched,
                       const Phv& final_phv, const ChainHeader& chain) {
  if (!active_) return;
  Entry* base = &entries_[pending_set_ * ways_];
  Entry* victim = &base[0];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Entry& e = base[w];
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.last_used < victim->last_used) victim = &e;
  }
  if (victim->valid) ++counters_.evictions;
  victim->valid = true;
  victim->last_used = tick_;
  victim->key = key_scratch_;
  victim->res.table_matched = table_matched;
  victim->res.chain = chain;
  victim->res.writes.clear();
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const Field f = static_cast<Field>(i);
    if (final_phv.modified(f)) {
      victim->res.writes.emplace_back(f, final_phv.get(f));
    }
  }
  ++counters_.inserts;
}

}  // namespace panic::rmt
