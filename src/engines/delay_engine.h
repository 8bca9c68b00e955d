// A configurable pass-through engine with a fixed service time.
// Stands in for "some offload" in topology/scheduling experiments (HOL
// blocking, chain scaling) where only the service-time behaviour matters,
// and doubles as the simplest example of implementing a custom engine.
#pragma once

#include "engines/engine.h"

namespace panic::engines {

class DelayEngine : public Engine {
 public:
  DelayEngine(std::string name, noc::NetworkInterface* ni,
              const EngineConfig& config, Cycles fixed_cycles)
      : Engine(std::move(name), ni, config), fixed_(fixed_cycles) {}

 protected:
  Cycles service_time(const Message& msg) const override {
    (void)msg;
    return fixed_;
  }

  bool process(Message& msg, Cycle now) override {
    (void)msg;
    (void)now;
    return true;
  }

 private:
  Cycles fixed_;
};

}  // namespace panic::engines
