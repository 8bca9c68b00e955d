#include "common/sim_mode.h"

namespace panic {

namespace {
std::optional<SimMode> g_forced_mode;
}  // namespace

void set_sim_mode(SimMode mode) { g_forced_mode = mode; }

bool sim_mode_forced() { return g_forced_mode.has_value(); }

SimMode requested_sim_mode(SimMode fallback) {
  return g_forced_mode.value_or(fallback);
}

}  // namespace panic
