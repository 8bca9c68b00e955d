// SteeringDirectory: the recovery half of engine-death faults.
//
// When an engine tile is marked dead, the RMT pipeline and the per-engine
// lightweight lookup logic consult this directory before sending a message
// toward it.  A dead next hop is re-steered to an *equivalent* engine
// (another member of the same equivalence group — e.g. the second of two
// parallel aux offloads) when one is alive; when no equivalent exists the
// message is dropped with accounting at the scheduler queue of the tile
// doing the steering — the only legal drop point (§3.1.2).
//
// Header-only and dependency-free (common/ids.h only) so that the engines
// layer can consult it without a cycle onto the fault library; the
// FaultInjector owns and populates the instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/codec.h"
#include "common/ids.h"

namespace panic::fault {

/// Degraded-mode admission policy when steering resolution fails (a kill
/// emptied the equivalence group).  kDrop keeps the original fail-fast
/// behaviour: the message dies with fault accounting at the steering tile.
/// kBackpressure parks it in a bounded per-tile buffer until the steering
/// generation moves (a revive/spare re-opens a route); when the buffer is
/// full, further messages are shed — bounded backpressure, never unbounded
/// queueing.
enum class NoRoutePolicy : std::uint8_t {
  kDrop,
  kBackpressure,
};

/// The `on_no_route` keywords.
inline constexpr codec::Name<NoRoutePolicy> kNoRoutePolicyNames[] = {
    {NoRoutePolicy::kDrop, "drop"},
    {NoRoutePolicy::kBackpressure, "backpressure"},
};

class SteeringDirectory {
 public:
  /// True when no engine is dead — the single branch live hot paths pay.
  bool empty() const { return dead_.empty(); }

  bool is_dead(EngineId id) const {
    return std::find(dead_.begin(), dead_.end(), id.value) != dead_.end();
  }

  void mark_dead(EngineId id) {
    if (!is_dead(id)) {
      dead_.push_back(id.value);
      ++gen_;
    }
  }

  /// Recovery: a revived (or spare-activated) engine rejoins its
  /// equivalence group.  The generation bump flushes routing caches, so
  /// new chains steer back to it immediately; messages already re-steered
  /// drain on the old path.
  void mark_alive(EngineId id) {
    const auto it = std::find(dead_.begin(), dead_.end(), id.value);
    if (it != dead_.end()) {
      dead_.erase(it);
      ++gen_;
    }
  }

  /// Declares a set of interchangeable engines (parallel instances of the
  /// same offload).  A dead member re-steers to the first live member.
  void add_equivalence_group(std::vector<EngineId> group) {
    groups_.push_back(std::move(group));
    ++gen_;
  }

  /// Explicit one-off fallback (overrides group resolution).
  void set_fallback(EngineId dead, EngineId equivalent) {
    fallbacks_.push_back({dead.value, equivalent.value});
    ++gen_;
  }

  /// Bumped on every state change (death, new group, new fallback).
  /// Caches that memoize routing decisions (rmt::FlowCache) compare this
  /// stamp and flush when it moves, so a cached chain can never resurrect
  /// a dead engine.
  std::uint64_t generation() const { return gen_; }

  /// Resolves a proposed next hop: the hop itself when alive, a live
  /// equivalent when the hop is dead, or nullopt — meaning the caller must
  /// drop the message with fault accounting.
  std::optional<EngineId> resolve(EngineId proposed) const {
    if (!is_dead(proposed)) return proposed;
    for (const auto& [dead, fb] : fallbacks_) {
      if (dead == proposed.value && !is_dead(EngineId{fb})) {
        return EngineId{fb};
      }
    }
    for (const auto& group : groups_) {
      if (std::find(group.begin(), group.end(), proposed) == group.end()) {
        continue;
      }
      for (const EngineId member : group) {
        if (member != proposed && !is_dead(member)) return member;
      }
    }
    return std::nullopt;
  }

  std::size_t dead_count() const { return dead_.size(); }

 private:
  std::vector<std::uint16_t> dead_;  // tiny: linear scan beats hashing
  std::vector<std::pair<std::uint16_t, std::uint16_t>> fallbacks_;
  std::vector<std::vector<EngineId>> groups_;
  std::uint64_t gen_ = 0;
};

}  // namespace panic::fault
