#include "engines/host_driver.h"

#include <cassert>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace panic::engines {

/// The jitter stream, combined with the global sim seed via derive_seed:
/// shift --seed and every retry schedule shifts deterministically with it.
constexpr std::uint64_t kJitterSeed = 0x7D17;

Cycles backoff_delay(const HostDriverConfig& config, std::uint64_t stream,
                     int attempt) {
  // Exponential base, capped: tx_timeout << (attempt-1), saturating the
  // shift so a pathological max_retries can't overflow.
  const int shift = attempt > 1 ? attempt - 1 : 0;
  Cycles base = config.tx_timeout;
  if (shift >= 63 || (base << shift) >> shift != base ||
      (base << shift) > config.max_backoff) {
    base = config.max_backoff;
  } else {
    base <<= shift;
  }
  if (config.jitter <= 0.0) return base > 0 ? base : 1;

  // One fresh draw per (stream, attempt): splitmix-style mixing keeps
  // adjacent descriptors/attempts decorrelated, derive_seed folds in the
  // global sim seed.
  std::uint64_t mixed = kJitterSeed;
  mixed ^= stream * 0x9E3779B97F4A7C15ull;
  mixed ^= static_cast<std::uint64_t>(attempt) * 0xBF58476D1CE4E5B9ull;
  Rng rng(derive_seed(mixed));
  const double factor =
      rng.uniform_real(1.0 - config.jitter, 1.0 + config.jitter);
  const auto delayed =
      static_cast<Cycles>(static_cast<double>(base) * factor);
  return delayed > 0 ? delayed : 1;
}

HostDriver::HostDriver(HostMemory* host, PcieEngine* pcie,
                       HostDriverConfig config)
    : host_(host), pcie_(pcie), config_(config) {
  assert(host_ != nullptr && pcie_ != nullptr);
}

void HostDriver::attach(Simulator& sim) {
  sim_ = &sim;
  pcie_->set_tx_launch_callback(
      [this](std::uint64_t desc_addr, Cycle /*now*/) {
        on_launched(desc_addr);
      });
  auto& m = sim.telemetry().metrics();
  m.expose_counter("host_driver.posted", &posted_);
  m.expose_counter("host_driver.completed", &completed_);
  m.expose_counter("host_driver.retries", &retries_);
  m.expose_counter("host_driver.failed", &failed_);
  m.expose_gauge("host_driver.pending",
                 [this] { return static_cast<double>(pending_.size()); });
}

std::uint64_t HostDriver::post_tx(std::span<const std::uint8_t> frame,
                                  std::uint16_t port, Cycle now,
                                  std::uint16_t tenant) {
  const auto frame_addr =
      host_->allocate(static_cast<std::uint32_t>(frame.size()));
  host_->write(frame_addr, frame);

  TxDescriptor desc;
  desc.frame_addr = frame_addr;
  desc.frame_len = static_cast<std::uint32_t>(frame.size());
  desc.port = port;
  desc.tenant = tenant;

  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  desc.serialize(w);
  const auto desc_addr = host_->allocate(TxDescriptor::kSize);
  host_->write(desc_addr, bytes);

  if (sim_ != nullptr) {
    pending_[desc_addr] = Pending{1};
    arm_timeout(desc_addr);
  }
  pcie_->ring_tx_doorbell(desc_addr, now);
  ++posted_;
  return desc_addr;
}

void HostDriver::on_launched(std::uint64_t desc_addr) {
  if (pending_.erase(desc_addr) != 0) ++completed_;
}

void HostDriver::arm_timeout(std::uint64_t desc_addr) {
  const int attempt = pending_[desc_addr].attempts;
  const Cycles delay = backoff_delay(config_, desc_addr, attempt);
  sim_->schedule_in(delay, [this, desc_addr, attempt] {
    const auto it = pending_.find(desc_addr);
    // Completed, or a newer attempt already re-armed its own timer.
    if (it == pending_.end() || it->second.attempts != attempt) return;
    if (it->second.attempts > config_.max_retries) {
      PANIC_WARN("host_driver",
                 "TX descriptor 0x%llx abandoned after %d attempts",
                 static_cast<unsigned long long>(desc_addr), attempt);
      pending_.erase(it);
      ++failed_;
      return;
    }
    ++it->second.attempts;
    ++retries_;
    PANIC_INFO("host_driver", "TX descriptor 0x%llx timed out, re-ringing",
               static_cast<unsigned long long>(desc_addr));
    arm_timeout(desc_addr);
    pcie_->ring_tx_doorbell(desc_addr, sim_->now());
  });
}

}  // namespace panic::engines
