// Isolated layer drives for the traced run.  Each one calls a single
// module's public functions in a tight loop over inputs taken from the
// workload itself — its frames, its traffic matrix, its scheduler spec —
// and reports host time per unit of that layer's work.  The spans they
// record are roots of their own, outside every repetition.
#pragma once

#include <cstdint>
#include <vector>

#include "core/panic_nic.h"
#include "scenario/scenario.h"
#include "spans.h"
#include "telemetry/metrics.h"

namespace perfbench {

struct LayerCosts {
  double noc_ns_per_flit = 0.0;        ///< per flit routed by a router
  double rmt_ns_per_pass = 0.0;        ///< per Pipeline::process call
  double sched_ns_per_op = 0.0;        ///< per enqueue or dequeue
  double ipsec_ns_per_byte = 0.0;      ///< ChaCha20 keystream XOR
  double compression_ns_per_byte = 0.0;  ///< LZ77 compress, input bytes
  double workload_ns_per_frame = 0.0;  ///< filler / factory call
};

/// Runs every drive once.  `nic` is the NIC of the last repetition (its
/// RMT program and flow cache are reused as built); `snap` is that
/// repetition's final snapshot, from which the NoC traffic matrix is read.
LayerCosts drive_layers(const panic::scenario::Scenario& scenario,
                        panic::core::PanicNic& nic,
                        const panic::telemetry::MetricsSnapshot& snap,
                        panic::Cycle cycles, SpanRecorder& rec, int run);

}  // namespace perfbench
