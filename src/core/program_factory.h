// Builds the RMT program that drives a PANIC NIC: the default program
// (tenant-slack assignment, WAN classification, offload-chain
// construction, receive-queue load balancing and TCP segmentation for
// host TX) followed by the config's own stages.  This is the "P4 program"
// of §4.1, written in p4lite (rmt/p4lite.h); the builder API of src/rmt is
// what the p4lite compiler targets.
#pragma once

#include <memory>

#include "core/panic_config.h"
#include "rmt/pipeline.h"

namespace panic::core {

/// Compiles the default program's text (program_factory.cpp) and then
/// `config.program`'s stages against `topo.tile_names()`.  A program that
/// does not compile throws std::runtime_error("scenario program: p4lite:N:
/// reason").
std::shared_ptr<const rmt::RmtProgram> build_default_program(
    const PanicConfig& config, const PanicTopology& topo);

}  // namespace panic::core
