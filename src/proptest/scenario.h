// The fuzz harness's scenario type IS the unified scenario language
// (src/scenario/) — a `.panic` replay file is an ordinary scenario file.
// This header keeps the historic panic::proptest spellings working for
// the generator, oracles, minimizer and panic_fuzz.
#pragma once

#include "scenario/scenario.h"

namespace panic::proptest {

using Scenario = panic::scenario::Scenario;
using WorkloadSpec = panic::scenario::WorkloadSpec;
using InjectSpec = panic::scenario::InjectSpec;
using HostTxSpec = panic::scenario::HostTxSpec;

}  // namespace panic::proptest
