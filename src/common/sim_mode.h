// The kernel scheduling discipline, shared between the simulator and the
// CLI layer.  Lives in common/ so argument parsing (common/cli.h) can name
// a kernel without depending on the simulator library.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/codec.h"

namespace panic {

/// Kernel scheduling discipline.
enum class SimMode : std::uint8_t {
  kEventDriven,  ///< tick only active components; fast-forward idle gaps
  kStrictTick,   ///< tick every component every cycle (reference mode)
};

/// "event" / "dense" — the names used by `--mode` and result JSON alike.
inline constexpr codec::Name<SimMode> kSimModeNames[] = {
    {SimMode::kEventDriven, "event"},
    {SimMode::kStrictTick, "dense"},
};

inline const char* to_string(SimMode mode) {
  return codec::name_of(kSimModeNames, mode).data();
}

}  // namespace panic
