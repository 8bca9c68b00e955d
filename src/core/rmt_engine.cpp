#include "core/rmt_engine.h"

#include <cassert>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace panic::core {

RmtEngine::RmtEngine(std::string name, noc::NetworkInterface* ni,
                     std::shared_ptr<const rmt::RmtProgram> program,
                     const RmtEngineConfig& config)
    : Component(std::move(name)),
      ni_(ni),
      pipeline_(std::move(program)),
      queue_(config.sched_policy, config.input_queue),
      egress_(config.no_route) {
  assert(ni_ != nullptr);
  ni_->set_client(this);
  if (config.cache.enabled) {
    pipeline_.enable_flow_cache(config.cache);
  }
}

void RmtEngine::route_completion(MessagePtr msg, Cycle now) {
  std::optional<EngineId> next;
  if (const auto hop = msg->chain.current(); hop.has_value()) {
    next = hop->engine;
    msg->slack = hop->slack;
  } else {
    next = lookup_.route(*msg);
  }
  if (next.has_value() && !egress_.steer(msg, *next, now)) return;
  trace(telemetry::TraceEventKind::kRmtClassify, now, msg->id,
        next.has_value() ? next->value : 0);
  if (next.has_value() && *next != id()) {
    egress_.stage(std::move(msg), *next, now);
  } else {
    // No route: the program terminated the message here (counted as
    // processed; visible in tests via processed - forwarded).
    msg->set_fate(MessageFate::kConsumed);
  }
}

void RmtEngine::tick(Cycle now) {
  egress_.retry_parked(
      [&](MessagePtr msg) { route_completion(std::move(msg), now); });
  // Arrivals into the scheduler queue.
  while (MessagePtr msg = ni_->try_receive(now)) {
    if (const auto hop = msg->chain.current();
        hop.has_value() && hop->engine == id()) {
      msg->chain.advance();  // consume the hop naming this RMT engine
      msg->slack = hop->slack;
    }
    queue_.try_enqueue(std::move(msg), now);
  }

  // Issue one message per cycle into the pipeline.
  if (!queue_.empty()) {
    MessagePtr msg = queue_.dequeue(now);
    // Match+action executes combinationally here; the result becomes
    // visible after the pipeline's latency.
    const auto result = pipeline_.process(*msg);
    if (result.drop || (!result.parsed && msg->kind == MessageKind::kPacket)) {
      trace(telemetry::TraceEventKind::kDrop, now, msg->id);
      msg->set_fate(MessageFate::kDropped);
      ++dropped_;
      PANIC_TRACE("rmt", "%s: pipeline dropped message %llu (%s)",
                  name().c_str(),
                  static_cast<unsigned long long>(msg->id.value),
                  result.drop ? "policy drop" : "unparsed packet");
    } else {
      in_flight_.try_push(std::move(msg), now + pipeline_.latency_cycles());
    }
  }

  // Completions exit the pipeline and are routed onward.
  while (auto done = in_flight_.try_pop(now)) {
    MessagePtr msg = std::move(*done);
    ++processed_;
    route_completion(std::move(msg), now);
  }

  egress_.drain(*ni_, now);
}

void RmtEngine::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  auto& m = t.metrics();
  const std::string prefix = "rmt." + name() + ".";
  engines::TileEgress::Counters& e = egress_.counters();
  m.expose_counter(prefix + "processed", &processed_);
  m.expose_counter(prefix + "dropped", &dropped_);
  m.expose_counter(prefix + "resteered", &e.resteered);
  m.expose_counter(prefix + "faulted_drops", &e.faulted);
  m.expose_counter(prefix + "no_route_parked", &e.parked);
  m.expose_counter(prefix + "no_route_shed", &e.shed);
  m.expose_gauge(prefix + "no_route_watermark", [this] {
    return static_cast<double>(egress_.parked_watermark());
  });
  m.expose_gauge(prefix + "staging_high_watermark", [this] {
    return static_cast<double>(egress_.staging_high_watermark());
  });
  // Flow-cache telemetry lives under its own `rmt.cache.` prefix: the only
  // metrics allowed to differ between cache-on and cache-off runs, so one
  // prefix filter excludes them from every differential gate.  Registered
  // only when the cache is enabled — cache-off runs publish nothing here.
  if (rmt::FlowCache* cache = pipeline_.flow_cache()) {
    const std::string cp = "rmt.cache." + name() + ".";
    rmt::FlowCache::Counters& c = cache->counters();
    m.expose_counter(cp + "hits", &c.hits);
    m.expose_counter(cp + "misses", &c.misses);
    m.expose_counter(cp + "inserts", &c.inserts);
    m.expose_counter(cp + "evictions", &c.evictions);
    m.expose_counter(cp + "flushes", &c.flushes);
    m.expose_gauge(cp + "cacheable",
                   [cache] { return cache->active() ? 1.0 : 0.0; });
  }
  queue_.register_metrics(m, prefix + "queue");
  queue_.bind_tracer(tracer(), trace_tag());
  egress_.bind_tracer(tracer(), trace_tag());
}

Cycle RmtEngine::next_wake(Cycle now) const {
  // Output staging retries every cycle (the NI can free a slot any time);
  // a non-empty input queue issues one message per cycle.  Parked
  // no-route completions poll for a steering-generation change.
  if (!egress_.empty() || !queue_.empty()) return now + 1;
  if (!in_flight_.empty()) {
    const Cycle ready = in_flight_.next_ready();
    return ready > now + 1 ? ready : now + 1;
  }
  return kNeverWake;
}

}  // namespace panic::core
