#include "baselines/pipeline_nic.h"

#include "telemetry/telemetry.h"

namespace panic::baselines {

/// Service cycles for packets that don't need the stage's offload.
constexpr Cycles kPassthroughCycles = 1;

PipelineNic::PipelineNic(std::string name, std::vector<OffloadSpec> offloads,
                         const PipelineNicConfig& config, Simulator& sim)
    : Component(std::move(name)), config_(config) {
  for (auto& spec : offloads) {
    stages_.push_back(Stage{std::move(spec), {}, false});
  }
  // Final stage: the DMA engine moving the packet to host memory.
  OffloadSpec dma;
  dma.name = "dma";
  stages_.push_back(Stage{std::move(dma), {}, false});
  sim.add(this);
}

bool PipelineNic::stage_push(std::size_t stage, MessagePtr& msg) {
  FifoServer& server = stages_[stage].server;
  if (server.queued() >= config_.stage_queue_depth) return false;
  server.push(std::move(msg));  // nulls `msg`; on failure the caller keeps it
  return true;
}

void PipelineNic::admit(MessagePtr msg, Cycle now) {
  if (stage_push(0, msg)) {
    request_wake(now);
    return;
  }
  drop(std::move(msg));
}

void PipelineNic::tick(Cycle now) {
  // Walk stages back to front so a packet finishing stage i can enter
  // stage i+1 the same cycle only if i+1 just freed — conservative and
  // stable.
  for (std::size_t i = stages_.size(); i-- > 0;) {
    Stage& st = stages_[i];
    const bool dma = i + 1 == stages_.size();

    // A wedged stage neither completes nor issues: work piles up behind
    // it and back-pressure propagates to the wire (no legal drop point —
    // the §2.3.1 contrast with PANIC's detour-around recovery).
    if (st.wedged) continue;

    // Completion: hand to the next stage (blocking if it is full — this
    // back-pressure is what propagates HOL blocking upstream).
    if (MessagePtr* done = st.server.finished(now)) {
      if (dma) {
        deliver(std::move(*done), now);
      } else {
        stage_push(i + 1, *done);  // on failure: stalled, retry
      }
    }

    st.server.start_next(now, [&](const Message& msg) {
      if (dma) return dma_cycles(config_.dma, msg.size());
      return st.spec.applies(msg) ? st.spec.service_cycles(msg)
                                  : kPassthroughCycles;
    });
  }
}

Cycle PipelineNic::next_wake(Cycle now) const {
  Cycle next = kNeverWake;
  for (const Stage& st : stages_) {
    // A wedged stage never progresses; upstream stalls keep waking.
    if (!st.wedged) next = std::min(next, st.server.next_wake(now));
  }
  return next;
}

bool PipelineNic::wedge_stage(const std::string& stage_name) {
  for (Stage& st : stages_) {
    if (st.spec.name == stage_name) {
      st.wedged = true;
      return true;
    }
  }
  return false;
}

void PipelineNic::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  expose_metrics(t.metrics(), name());
}

}  // namespace panic::baselines
