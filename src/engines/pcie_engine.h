// PCIe engine: the host-facing tile.
//
// RX direction (§3.2): terminates interrupt messages from the DMA engine
// and applies interrupt coalescing ("a PCIe engine that may generate an
// interrupt depending on the interrupt coalescing state").
//
// TX direction (§3.1: "reading transmit descriptors ... are all treated
// as packets"): the host driver rings a doorbell; the PCIe engine fetches
// the 16-byte TX descriptor through the DMA engine, then the frame bytes,
// wraps them as a from-host packet and injects it toward the RMT pipeline,
// which routes it (checksum offload, optional WAN encryption) to its
// egress port.
#pragma once

#include <functional>
#include <unordered_map>

#include "engines/engine.h"
#include "engines/tx_descriptor.h"

namespace panic::engines {

struct PcieConfig {
  Cycles coalesce_window = 500;  ///< 1 µs @ 500 MHz
  /// Ethernet port tiles, indexed by TxDescriptor::port.
  std::vector<EngineId> eth_ports;
};

class PcieEngine : public Engine {
 public:
  PcieEngine(std::string name, noc::NetworkInterface* ni,
             const EngineConfig& config, const PcieConfig& pcie);

  /// Host-side MMIO: the driver rings the TX doorbell for the descriptor
  /// at `descriptor_addr`.  (Arrives instantly — MMIO writes are posted.)
  void ring_tx_doorbell(std::uint64_t descriptor_addr, Cycle now);

  /// Invoked when the frame for a posted descriptor has been fetched and
  /// launched toward the wire — the driver's TX completion signal (the
  /// HostDriver uses it to cancel its timeout/retry timer).
  using TxLaunchCallback = std::function<void(std::uint64_t desc_addr,
                                              Cycle now)>;
  void set_tx_launch_callback(TxLaunchCallback cb) {
    tx_launched_cb_ = std::move(cb);
  }

  std::uint64_t interrupts_delivered() const { return delivered_; }
  std::uint64_t interrupts_coalesced() const { return coalesced_; }
  std::uint64_t tx_packets_launched() const { return tx_launched_; }
  std::uint64_t tx_descriptor_errors() const { return tx_errors_; }

  void register_telemetry(telemetry::Telemetry& t) override;

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  /// Markers carried in meta.cache_hint through the DMA round trips.
  static constexpr std::uint8_t kFetchDescriptor = 1;
  static constexpr std::uint8_t kFetchFrame = 2;

  void handle_doorbell(Message& msg, Cycle now);
  void handle_completion(Message& msg, Cycle now);
  /// Emits a message this engine made toward its lookup route, or marks it
  /// consumed when the route is absent or names this tile.  No steering:
  /// a message sent to a dead engine is discarded when it arrives there.
  void route_or_consume(MessagePtr msg, Cycle now);

  PcieConfig pcie_;
  Cycle window_expires_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t tx_launched_ = 0;
  std::uint64_t tx_errors_ = 0;

  /// In-flight TX frames by frame address; the descriptor address rides
  /// along so the launch can be reported back to the host driver.
  struct PendingTx {
    TxDescriptor desc;
    std::uint64_t desc_addr = 0;
  };
  std::unordered_map<std::uint64_t, PendingTx> pending_tx_;
  TxLaunchCallback tx_launched_cb_;
};

}  // namespace panic::engines
