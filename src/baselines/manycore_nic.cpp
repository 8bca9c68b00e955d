#include "baselines/manycore_nic.h"

#include "telemetry/telemetry.h"

namespace panic::baselines {

/// Packets one core's queue holds; a frame dispatched to a full core drops.
constexpr std::size_t kCoreQueueDepth = 256;

ManycoreNic::ManycoreNic(std::string name, std::vector<OffloadSpec> offloads,
                         const ManycoreNicConfig& config, Simulator& sim)
    : Component(std::move(name)),
      config_(config),
      offloads_(std::move(offloads)),
      cores_(static_cast<std::size_t>(config.num_cores)) {
  sim.add(this);
}

void ManycoreNic::admit(MessagePtr msg, Cycle now) {
  std::size_t core;
  if (config_.dispatch == ManycoreNicConfig::Dispatch::kFlowHash) {
    const std::uint64_t h =
        msg->meta.udp_dst_port * 0x9E3779B97F4A7C15ull + msg->tenant.value;
    core = static_cast<std::size_t>(h % cores_.size());
  } else {
    core = static_cast<std::size_t>(next_core_++ % static_cast<int>(cores_.size()));
  }
  if (cores_[core].queued() >= kCoreQueueDepth) {
    drop(std::move(msg));
    return;
  }
  cores_[core].push(std::move(msg));
  request_wake(now);
}

void ManycoreNic::tick(Cycle now) {
  if (MessagePtr* done = dma_.finished(now)) deliver(std::move(*done), now);
  dma_.start_next(now, [&](const Message& msg) {
    return dma_cycles(config_.dma, msg.size());
  });

  for (FifoServer& core : cores_) {
    if (MessagePtr* done = core.finished(now)) dma_.push(std::move(*done));
    core.start_next(now, [&](const Message& msg) {
      Cycles t = config_.orchestration_cycles;
      for (const OffloadSpec& spec : offloads_) {
        if (spec.applies(msg)) t += spec.service_cycles(msg);
      }
      return t;
    });
  }
}

Cycle ManycoreNic::next_wake(Cycle now) const {
  Cycle next = dma_.next_wake(now);
  for (const FifoServer& core : cores_) {
    next = std::min(next, core.next_wake(now));
  }
  return next;
}

void ManycoreNic::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  expose_metrics(t.metrics(), name());
}

}  // namespace panic::baselines
