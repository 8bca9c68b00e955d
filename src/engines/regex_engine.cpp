#include "engines/regex_engine.h"

#include "net/packet.h"
#include "telemetry/telemetry.h"

namespace panic::engines {

RegexEngine::RegexEngine(std::string name, noc::NetworkInterface* ni,
                         const EngineConfig& config, const RegexConfig& regex)
    : Engine(std::move(name), ni, config), regex_(regex) {}

bool RegexEngine::add_pattern(std::string_view pattern) {
  auto compiled = Regex::compile(pattern);
  if (!compiled.has_value()) return false;
  patterns_.push_back(std::move(*compiled));
  return true;
}

Cycles RegexEngine::service_time(const Message& msg) const {
  return offload_cycles(regex_.setup_cycles, regex_.cycles_per_byte,
                        msg.data.size());
}

bool RegexEngine::process(Message& msg, Cycle now) {
  (void)now;
  if (msg.kind != MessageKind::kPacket) return true;
  ++scanned_;

  std::span<const std::uint8_t> haystack = msg.data;
  if (const auto parsed = parse_frame(msg.data);
      parsed.has_value() && parsed->payload_size > 0) {
    haystack = parsed->payload(msg.data);
  }

  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    if (patterns_[i].search(haystack)) {
      ++matched_;
      if (regex_.policy == RegexPolicy::kDropOnMatch) {
        ++dropped_;
        return false;
      }
      msg.meta.cache_hint = static_cast<std::uint8_t>(i + 1);
      break;
    }
  }
  return true;
}

void RegexEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "matched", &matched_);
  m.expose_counter(metric_prefix() + "scanned", &scanned_);
  m.expose_counter(metric_prefix() + "dropped_by_policy", &dropped_);
}

}  // namespace panic::engines
