// Host driver model: the software side of the TX path.  Writes frames and
// TX descriptors into host memory and rings the PCIe engine's doorbell —
// exactly what a kernel driver does, minus the kernel.
//
// Fault tolerance: a posted TX whose launch confirmation (the PCIe
// engine's TxLaunchCallback) never arrives — because an engine on the
// descriptor/frame-fetch path died or wedged — is retried by re-ringing
// the doorbell, up to `max_retries` times, then abandoned (counted in
// frames_failed).  Retry delays follow seeded exponential backoff with
// jitter: attempt n waits tx_timeout << (n-1) cycles (capped at
// max_backoff) plus a deterministic jitter drawn from derive_seed, so a
// storm of simultaneous posts doesn't re-ring in lockstep — yet the
// whole schedule is a pure function of (config, descriptor, attempt) and
// therefore bit-identical across kernels and re-runs (backoff_delay is
// the unit-testable core).  Timers run through Simulator::schedule_in,
// so retry behaviour is identical in every kernel mode.  Without
// attach(), post_tx behaves exactly as before (fire and forget).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "common/units.h"
#include "engines/host_memory.h"
#include "engines/pcie_engine.h"

namespace panic {
class Simulator;
}

namespace panic::engines {

struct HostDriverConfig {
  Cycles tx_timeout = 20000;  ///< base timeout before the first re-ring
  int max_retries = 3;        ///< re-rings before giving up
  /// Exponential-backoff ceiling: attempt n waits
  /// min(tx_timeout << (n-1), max_backoff) before jitter.
  Cycles max_backoff = 160000;
  /// Jitter amplitude as a fraction of the (capped) delay: the drawn
  /// delay lands in [(1-j)*base, (1+j)*base).  0 disables jitter.
  double jitter = 0.25;
  /// Per-driver jitter stream, combined with the global sim seed via
  /// derive_seed — shift --seed and every retry schedule shifts
  /// deterministically with it.
  std::uint64_t seed = 0x7D17;
};

/// The retry delay armed after doorbell ring number `attempt` (1-based)
/// for descriptor stream `stream` (the descriptor address).  Pure:
/// exponential base capped at max_backoff, jittered by a fresh Rng
/// seeded from derive_seed of (config.seed, stream, attempt) mixed —
/// no state, so the schedule is reproducible and unit-testable in
/// isolation.
Cycles backoff_delay(const HostDriverConfig& config, std::uint64_t stream,
                     int attempt);

class HostDriver {
 public:
  HostDriver(HostMemory* host, PcieEngine* pcie, HostDriverConfig config = {});

  /// Enables timeout/retry: timers are scheduled on `sim`, and the
  /// driver's counters are published under "host_driver.*".  Hooks the
  /// PCIe engine's TX-launch callback.
  void attach(Simulator& sim);

  /// Posts one TX frame on Ethernet port `port` and rings the doorbell.
  /// Returns the descriptor address (useful for tests).
  std::uint64_t post_tx(std::span<const std::uint8_t> frame,
                        std::uint16_t port, Cycle now,
                        std::uint16_t tenant = 0);

  std::uint64_t frames_posted() const { return posted_; }
  /// Launch-confirmed frames (only counted once attached).
  std::uint64_t frames_completed() const { return completed_; }
  std::uint64_t retries() const { return retries_; }
  /// Frames abandoned after max_retries timeouts.
  std::uint64_t frames_failed() const { return failed_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  void on_launched(std::uint64_t desc_addr);
  void arm_timeout(std::uint64_t desc_addr);

  HostMemory* host_;
  PcieEngine* pcie_;
  HostDriverConfig config_;
  Simulator* sim_ = nullptr;

  struct Pending {
    int attempts = 0;  ///< doorbell rings so far for this descriptor
  };
  std::unordered_map<std::uint64_t, Pending> pending_;

  std::uint64_t posted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace panic::engines
