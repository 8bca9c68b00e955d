// The PANIC NIC: composition of the mesh, the heavyweight RMT pipeline
// (parallel RMT engine tiles), the offload engines, and the DMA/PCIe host
// interface — Figure 3c of the paper, as a runnable simulation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/panic_config.h"
#include "core/rmt_engine.h"
#include "engines/checksum_engine.h"
#include "engines/compression_engine.h"
#include "engines/delay_engine.h"
#include "engines/dma_engine.h"
#include "engines/ethernet_port.h"
#include "engines/host_driver.h"
#include "engines/host_memory.h"
#include "engines/ipsec_engine.h"
#include "engines/kvs_cache_engine.h"
#include "engines/pcie_engine.h"
#include "engines/rate_limiter_engine.h"
#include "engines/rdma_engine.h"
#include "engines/regex_engine.h"
#include "engines/tso_engine.h"
#include "fault/fault_injector.h"
#include "fault/recovery.h"
#include "fault/watchdog.h"
#include "sim/simulator.h"

namespace panic::core {

class PanicNic {
 public:
  /// Builds the NIC and registers every component with `sim`.
  PanicNic(const PanicConfig& config, Simulator& sim);

  const PanicConfig& config() const { return config_; }
  const PanicTopology& topology() const { return topo_; }
  noc::Mesh& mesh() { return *mesh_; }
  engines::HostMemory& host_memory() { return host_; }

  // --- Engine access. ---
  /// Ethernet port `i`, the NIC's RxPort on that wire (deliver_frame()).
  engines::EthernetPortEngine& eth_port(int i) { return *eth_ports_[i]; }
  int num_eth_ports() const { return static_cast<int>(eth_ports_.size()); }
  RmtEngine& rmt(int i) { return *rmt_engines_[i]; }
  int num_rmt_engines() const {
    return static_cast<int>(rmt_engines_.size());
  }
  engines::DmaEngine& dma() { return *dma_; }
  engines::PcieEngine& pcie() { return *pcie_; }
  /// The host driver model for the TX path (post_tx + doorbell).
  engines::HostDriver& host_driver() { return *host_driver_; }
  engines::IpsecEngine& ipsec_rx() { return *ipsec_rx_; }
  engines::IpsecEngine& ipsec_tx() { return *ipsec_tx_; }
  engines::KvsCacheEngine& kvs() { return *kvs_; }
  engines::RdmaEngine& rdma() { return *rdma_; }
  engines::CompressionEngine& compression() { return *compression_; }
  engines::ChecksumEngine& checksum() { return *checksum_; }
  engines::RegexEngine& regex() { return *regex_; }
  engines::TsoEngine& tso() { return *tso_; }
  engines::RateLimiterEngine& rate_limiter() { return *rate_limiter_; }
  engines::DelayEngine& aux(int i) { return *aux_[i]; }

  /// Fault injection: every engine and router is registered here, and
  /// every Engine/RmtEngine consults its steering directory.  Armed in
  /// the constructor when config.faults is non-empty; a plan naming an
  /// unknown engine or router tile makes the constructor throw
  /// std::runtime_error.
  fault::FaultInjector& fault_injector() { return *injector_; }
  /// Non-null when config.faults is non-empty.
  fault::Watchdog* watchdog() { return watchdog_; }
  /// Recovery-time telemetry (fault.recovery.*); non-null whenever the
  /// watchdog is (same arming condition).
  fault::RecoveryTracker* recovery_tracker() { return recovery_; }

  /// Total heavyweight-pipeline traversals across all RMT engines.
  std::uint64_t total_rmt_passes() const;

  /// Computes the tile placement this config produces.
  static PanicTopology plan_topology(const PanicConfig& config);

 private:
  PanicConfig config_;
  PanicTopology topo_;
  engines::HostMemory host_;

  std::unique_ptr<noc::Mesh> mesh_;
  std::vector<engines::EthernetPortEngine*> eth_ports_;
  std::vector<RmtEngine*> rmt_engines_;
  engines::DmaEngine* dma_ = nullptr;
  engines::PcieEngine* pcie_ = nullptr;
  engines::IpsecEngine* ipsec_rx_ = nullptr;
  engines::IpsecEngine* ipsec_tx_ = nullptr;
  engines::KvsCacheEngine* kvs_ = nullptr;
  engines::RdmaEngine* rdma_ = nullptr;
  engines::CompressionEngine* compression_ = nullptr;
  engines::ChecksumEngine* checksum_ = nullptr;
  engines::RegexEngine* regex_ = nullptr;
  engines::TsoEngine* tso_ = nullptr;
  engines::RateLimiterEngine* rate_limiter_ = nullptr;
  std::vector<engines::DelayEngine*> aux_;
  std::unique_ptr<engines::HostDriver> host_driver_;

  std::unique_ptr<fault::FaultInjector> injector_;
  fault::Watchdog* watchdog_ = nullptr;          ///< owned via owned_
  fault::RecoveryTracker* recovery_ = nullptr;   ///< owned via owned_

  std::vector<std::unique_ptr<Component>> owned_;
};

}  // namespace panic::core
