#include "common/sim_mode.h"

namespace panic {

const char* to_string(SimMode mode) {
  switch (mode) {
    case SimMode::kEventDriven: return "event";
    case SimMode::kStrictTick: return "dense";
  }
  return "?";
}

std::optional<SimMode> sim_mode_from_string(std::string_view name) {
  if (name == "event") return SimMode::kEventDriven;
  if (name == "dense") return SimMode::kStrictTick;
  return std::nullopt;
}

namespace {
std::optional<SimMode> g_forced_mode;
}  // namespace

void set_sim_mode(SimMode mode) { g_forced_mode = mode; }

bool sim_mode_forced() { return g_forced_mode.has_value(); }

SimMode requested_sim_mode(SimMode fallback) {
  return g_forced_mode.value_or(fallback);
}

}  // namespace panic
