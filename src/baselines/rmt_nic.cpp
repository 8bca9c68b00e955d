#include "baselines/rmt_nic.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace panic::baselines {

constexpr Cycles kPipelineLatency = 5;  ///< parse + M+A stages + deparse

RmtNic::RmtNic(std::string name, std::vector<OffloadSpec> heavy_offloads,
               const RmtNicConfig& config, Simulator& sim)
    : Component(std::move(name)),
      config_(config),
      heavy_(std::move(heavy_offloads)) {
  sim.add(this);
}

void RmtNic::admit(MessagePtr msg, Cycle now) {
  if (in_pipeline_.size() + dma_.queued() >= config_.queue_depth) {
    drop(std::move(msg));
    return;
  }
  in_pipeline_.push({std::move(msg), now + kPipelineLatency});
  request_wake(now);
}

void RmtNic::tick(Cycle now) {
  // Pipeline exits (full rate, latency only).
  while (!in_pipeline_.empty() && now >= in_pipeline_.front().second) {
    dma_.push(in_pipeline_.pop().first);
  }

  // DMA engine: punted packets continue to host software.
  if (MessagePtr* done = dma_.finished(now)) {
    const bool punt =
        std::any_of(heavy_.begin(), heavy_.end(),
                    [&](const OffloadSpec& s) { return s.applies(**done); });
    if (punt) {
      ++punted_;
      host_.push(std::move(*done));
    } else {
      deliver(std::move(*done), now);
    }
  }
  dma_.start_next(now, [&](const Message& msg) {
    return dma_cycles(config_.dma, msg.size());
  });

  // Host software processing of punted packets.
  if (MessagePtr* done = host_.finished(now)) deliver(std::move(*done), now);
  host_.start_next(now,
              [&](const Message&) { return config_.host_software_cycles; });
}

Cycle RmtNic::next_wake(Cycle now) const {
  Cycle next = std::min(dma_.next_wake(now), host_.next_wake(now));
  if (!in_pipeline_.empty()) {
    next = std::min(next, std::max(in_pipeline_.front().second, now + 1));
  }
  return next;
}

void RmtNic::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  expose_metrics(t.metrics(), name(), {{"punted", &punted_}});
}

}  // namespace panic::baselines
