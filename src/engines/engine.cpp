#include "engines/engine.h"

#include <cassert>

#include "telemetry/telemetry.h"

namespace panic::engines {

void Engine::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  auto& m = t.metrics();
  const std::string p = metric_prefix();
  m.expose_counter(p + "processed", &processed_);
  m.expose_counter(p + "busy_cycles", &busy_cycles_);
  m.expose_histogram(p + "service_cycles", &service_hist_);
  m.expose_gauge(p + "staging_high_watermark", [this] {
    return static_cast<double>(egress_.staging_high_watermark());
  });
  TileEgress::Counters& e = egress_.counters();
  m.expose_counter(p + "faulted_discards", &e.faulted);
  m.expose_counter(p + "corrupted", &corrupted_);
  m.expose_counter(p + "resteered", &e.resteered);
  m.expose_counter(p + "no_route_parked", &e.parked);
  m.expose_counter(p + "no_route_shed", &e.shed);
  m.expose_gauge(p + "no_route_watermark", [this] {
    return static_cast<double>(egress_.parked_watermark());
  });
  queue_.register_metrics(m, "engine." + name() + ".queue");
  queue_.bind_tracer(tracer(), trace_tag());
  egress_.bind_tracer(tracer(), trace_tag());
}

Engine::Engine(std::string name, noc::NetworkInterface* ni,
               const EngineConfig& config)
    : Component(std::move(name)),
      ni_(ni),
      config_(config),
      queue_(config.sched_policy, config.queue_capacity,
             config.drop_policy),
      egress_(config.no_route) {
  assert(ni_ != nullptr);
  ni_->set_client(this);
}

void Engine::drain_arrivals(Cycle now) {
  while (MessagePtr msg = ni_->try_receive(now)) {
    if (corrupt_p_ > 0.0 && now < corrupt_until_) maybe_corrupt(*msg, now);
    // Adopt the slack of the hop that addressed this engine; the hop is
    // consumed when the message is forwarded onward.
    if (const auto hop = msg->chain.current();
        hop.has_value() && hop->engine == id()) {
      msg->slack = hop->slack;
    }
    queue_.try_enqueue(std::move(msg), now);  // full queue => drop
  }
}

void Engine::maybe_corrupt(Message& msg, Cycle now) {
  // One bernoulli draw per arrival keeps the stream aligned across runs
  // regardless of payload sizes.
  if (!corrupt_rng_.bernoulli(corrupt_p_) || msg.data.empty()) return;
  const std::size_t byte =
      corrupt_rng_.uniform_int(0, msg.data.size() - 1);
  msg.data[byte] ^= 0x20;
  ++corrupted_;
  trace(telemetry::TraceEventKind::kFault, now, msg.id,
        static_cast<std::uint32_t>(byte));
}

void Engine::emit(MessagePtr msg, EngineId dst, Cycle now) {
  assert(msg != nullptr);
  trace(telemetry::TraceEventKind::kEmit, now, msg->id, dst.value);
  egress_.stage(std::move(msg), dst, now);
  // emit() is also an external entry point (e.g. a MAC's deliver_rx), so
  // a quiescent engine must wake to drain its staging buffer.
  request_wake(now);
}

void Engine::forward_along_chain(MessagePtr msg, Cycle now) {
  // Consume the hop naming this engine, if it does.
  if (const auto hop = msg->chain.current();
      hop.has_value() && hop->engine == id()) {
    msg->chain.advance();
  }
  auto next = lookup_.route(*msg);
  if (!next.has_value() || *next == id()) {
    msg->set_fate(MessageFate::kConsumed);
    return;  // terminates here
  }
  if (egress_.steer(msg, *next, now)) emit(std::move(msg), *next, now);
}

void Engine::tick(Cycle now) {
  if (dead_) {
    // A dead tile sinks its arrivals so the NoC stays lossless; every
    // discarded message is attributed to the fault.
    discard_all(now);
    return;
  }
  if (now < stalled_until_) return;  // frozen: observable no-op

  egress_.retry_parked(
      [&](MessagePtr msg) { forward_along_chain(std::move(msg), now); });
  drain_arrivals(now);

  // Complete the in-service message.
  if (in_service_ != nullptr && now >= service_done_) {
    MessagePtr msg = std::move(in_service_);
    ++msg->engines_visited;
    ++processed_;
    trace(telemetry::TraceEventKind::kServiceEnd, now, msg->id,
          static_cast<std::uint32_t>(service_cycles_));
    if (process(*msg, now)) {
      forward_along_chain(std::move(msg), now);
    } else {
      // Consumed by the offload (kept alive until here; the paths that
      // deliver inside process() already set a stronger fate).
      msg->set_fate(MessageFate::kConsumed);
    }
  }

  // Start the next message if idle and there is room to stage the result.
  if (in_service_ == nullptr && !queue_.empty() && can_stage()) {
    in_service_ = queue_.dequeue(now);
    Cycles t = service_time(*in_service_);
    if (t == 0) t = 1;
    if (now < degrade_until_ && degrade_factor_ != 1.0) {
      t = static_cast<Cycles>(static_cast<double>(t) * degrade_factor_);
      if (t == 0) t = 1;
    }
    service_hist_.record(t);
    service_done_ = now + t;
    service_cycles_ = t;
    busy_cycles_ += t;
    trace(telemetry::TraceEventKind::kServiceStart, now, in_service_->id,
          static_cast<std::uint32_t>(t));
  }

  egress_.drain(*ni_, now);
}

void Engine::discard_all(Cycle now) {
  while (MessagePtr msg = ni_->try_receive(now)) {
    egress_.fault_drop(std::move(msg), now, 0);
  }
  for (MessagePtr& msg : queue_.evict_all()) {
    egress_.fault_drop(std::move(msg), now, 0);
  }
  if (in_service_ != nullptr) {
    egress_.fault_drop(std::move(in_service_), now, 0);
  }
  egress_.discard_all(now);
}

void Engine::fault_kill(Cycle now) {
  dead_ = true;
  discard_all(now);
}

void Engine::fault_revive(Cycle now) {
  dead_ = false;
  stalled_until_ = 0;
  degrade_factor_ = 1.0;
  degrade_until_ = 0;
  corrupt_p_ = 0.0;
  corrupt_until_ = 0;
  request_wake(now);
}

void Engine::fault_stall(Cycle now, Cycles duration) {
  stalled_until_ = now + duration;
}

void Engine::fault_degrade(double factor, Cycle until) {
  degrade_factor_ = factor <= 0.0 ? 1.0 : factor;
  degrade_until_ = until;
}

void Engine::fault_corrupt(double probability, Cycle until,
                           std::uint64_t seed) {
  corrupt_p_ = probability;
  corrupt_until_ = until;
  corrupt_rng_ = Rng(seed);
}

Cycle Engine::next_wake(Cycle now) const {
  if (dead_) return kNeverWake;  // arrivals wake us through the NI
  if (now < stalled_until_) return stalled_until_;
  // Parked no-route messages poll for a steering-generation change (the
  // retry itself is a cheap stamp compare while the route stays closed);
  // the staging buffer drains while the NI has room, and the NI can free
  // a slot any cycle — retry every cycle until both are empty.
  if (!egress_.empty()) return now + 1;
  // Nothing to do before the in-service message completes; arrivals in
  // between wake us through the NI and are absorbed by drain_arrivals.
  if (in_service_ != nullptr) return service_done_;
  // Queued but not started: only possible when staging is configured too
  // small to ever admit work; keep dense behaviour.
  if (!queue_.empty()) return now + 1;
  return kNeverWake;
}

}  // namespace panic::engines
