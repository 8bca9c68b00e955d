// Identifier types for the entities that appear in the PANIC architecture:
// engines (tiles on the on-chip network), tenants and messages.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

namespace panic {

/// Identifies one engine (tile) on the on-chip network.  The paper's logical
/// switch routes messages between engines by these addresses (§3.1.2).
struct EngineId {
  std::uint16_t value = kInvalid;

  static constexpr std::uint16_t kInvalid =
      std::numeric_limits<std::uint16_t>::max();

  constexpr bool valid() const { return value != kInvalid; }
  constexpr auto operator<=>(const EngineId&) const = default;
};

/// Identifies a tenant (application / container / VM) for the logical
/// scheduler's performance-isolation policies (§3.1.3).
struct TenantId {
  std::uint16_t value = 0;
  constexpr auto operator<=>(const TenantId&) const = default;
};

/// Unique per-simulation message id, used for tracing and latency bookkeeping.
struct MessageId {
  std::uint64_t value = 0;
  constexpr auto operator<=>(const MessageId&) const = default;
};

}  // namespace panic

template <>
struct std::hash<panic::EngineId> {
  std::size_t operator()(panic::EngineId id) const noexcept {
    return std::hash<std::uint16_t>{}(id.value);
  }
};

template <>
struct std::hash<panic::TenantId> {
  std::size_t operator()(panic::TenantId id) const noexcept {
    return std::hash<std::uint16_t>{}(id.value);
  }
};
