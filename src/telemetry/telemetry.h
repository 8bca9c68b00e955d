// The telemetry facade every Simulator owns: one MetricsRegistry (the
// unified stats surface) plus one MessageTracer (opt-in per-message
// lifecycle tracing).  See DESIGN.md §"Telemetry" for the naming scheme
// and event schema.
//
// Typical bench usage:
//
//   Simulator sim;
//   core::PanicNic nic(cfg, sim);                 // components register
//   sim.telemetry().tracer().enable();            // optional
//   sim.run(cycles);
//   auto snap = sim.snapshot();
//   double pkts = snap.counter("engine.dma.packets_to_host");
//   sim.telemetry().tracer().write_chrome_json("run.trace.json",
//                                              sim.clock());
#pragma once

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace panic::telemetry {

class Telemetry {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  MessageTracer& tracer() { return tracer_; }
  const MessageTracer& tracer() const { return tracer_; }

  /// Point-in-time copy of every registered metric.
  MetricsSnapshot snapshot() const { return metrics_.snapshot(); }

 private:
  MetricsRegistry metrics_;
  MessageTracer tracer_;
};

}  // namespace panic::telemetry
