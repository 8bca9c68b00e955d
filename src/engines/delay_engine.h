// A configurable pass-through engine with fixed + per-byte service time.
// Stands in for "some offload" in topology/scheduling experiments (HOL
// blocking, chain scaling) where only the service-time behaviour matters,
// and doubles as the simplest example of implementing a custom engine.
#pragma once

#include "engines/engine.h"

namespace panic::engines {

class DelayEngine : public Engine {
 public:
  DelayEngine(std::string name, noc::NetworkInterface* ni,
              const EngineConfig& config, Cycles fixed_cycles,
              double cycles_per_byte = 0.0)
      : Engine(std::move(name), ni, config),
        fixed_(fixed_cycles),
        per_byte_(cycles_per_byte) {}

 protected:
  Cycles service_time(const Message& msg) const override {
    return offload_cycles(fixed_, per_byte_, msg.data.size());
  }

  bool process(Message& msg, Cycle now) override {
    (void)msg;
    (void)now;
    return true;
  }

 private:
  Cycles fixed_;
  double per_byte_;
};

}  // namespace panic::engines
