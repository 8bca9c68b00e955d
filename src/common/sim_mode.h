// The kernel scheduling discipline, shared between the simulator, the
// scenario language and the CLI layer.  Lives in common/ so argument
// parsing (common/cli.h) and config files can name a kernel without
// depending on the simulator library.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/codec.h"

namespace panic {

/// Kernel scheduling discipline.
enum class SimMode : std::uint8_t {
  kEventDriven,  ///< tick only active components; fast-forward idle gaps
  kStrictTick,   ///< tick every component every cycle (reference mode)
};

/// "event" / "dense" — the names used by `--mode`, scenario files and
/// result JSON alike.
inline constexpr codec::Name<SimMode> kSimModeNames[] = {
    {SimMode::kEventDriven, "event"},
    {SimMode::kStrictTick, "dense"},
};

inline const char* to_string(SimMode mode) {
  return codec::name_of(kSimModeNames, mode).data();
}

/// Overrides the process-wide kernel mode (the --mode twin of
/// set_sim_seed in common/rng.h).  ArgParser applies this
/// from an explicit --mode; requested_sim_mode() then returns it
/// everywhere, so helper functions deep inside a bench honor the flag
/// without plumbing.
void set_sim_mode(SimMode mode);

/// True once set_sim_mode() was called (an explicit --mode was given).
bool sim_mode_forced();

/// The kernel mode a bench/example should construct: an explicit
/// set_sim_mode() wins, else `fallback` (the caller's usual kernel).
/// Mode-explicit differential tests must NOT use this — they pass their
/// mode directly so the comparison stays meaningful.
SimMode requested_sim_mode(SimMode fallback = SimMode::kEventDriven);

}  // namespace panic
