// Regex/DPI offload engine: scans packet payloads against a compiled
// pattern set.  Matching messages are marked (meta.cache_hint = 1 + index
// of the first matching pattern) or dropped, depending on policy — the
// building block for on-NIC intrusion detection.
#pragma once

#include <vector>

#include "engines/engine.h"
#include "engines/regex_nfa.h"

namespace panic::engines {

enum class RegexPolicy { kMark, kDropOnMatch };

struct RegexConfig {
  RegexPolicy policy = RegexPolicy::kMark;
  Cycles setup_cycles = 8;
  double cycles_per_byte = 1.0;  ///< NFA scan rate
};

class RegexEngine : public Engine {
 public:
  RegexEngine(std::string name, noc::NetworkInterface* ni,
              const EngineConfig& config, const RegexConfig& regex);

  /// Adds a pattern; returns false (and ignores it) on syntax error.
  bool add_pattern(std::string_view pattern);

  std::uint64_t matched() const { return matched_; }
  std::uint64_t scanned() const { return scanned_; }
  std::uint64_t dropped_by_policy() const { return dropped_; }

  void register_telemetry(telemetry::Telemetry& t) override;

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  RegexConfig regex_;
  std::vector<Regex> patterns_;
  std::uint64_t matched_ = 0;
  std::uint64_t scanned_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace panic::engines
