// Configuration and tile placement for a PANIC NIC instance.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "engines/dma_engine.h"
#include "engines/host_driver.h"
#include "engines/ipsec_engine.h"
#include "engines/kvs_cache_engine.h"
#include "engines/rdma_engine.h"
#include "engines/sched_queue.h"
#include "fault/fault_plan.h"
#include "fault/steering.h"
#include "fault/watchdog.h"
#include "noc/mesh.h"
#include "rmt/flow_cache.h"
#include "rmt/p4lite.h"

namespace panic::core {

/// Which tile each functional unit occupies (EngineId == tile id).
/// Computed by PanicNic from the mesh size; exposed so RMT programs can
/// name engines in chain actions.
struct PanicTopology {
  std::vector<EngineId> eth_ports;
  std::vector<EngineId> rmt_engines;
  EngineId dma;
  EngineId pcie;
  EngineId ipsec_rx;      ///< decrypt direction
  EngineId ipsec_tx;      ///< encrypt direction
  EngineId kvs;
  EngineId rdma;
  EngineId compression;
  EngineId checksum;
  EngineId regex;
  EngineId tso;
  EngineId rate_limiter;
  std::vector<EngineId> aux;    ///< generic delay engines for experiments
  std::vector<EngineId> spare;  ///< reserved tiles with no engine attached
                                ///< (callers attach their own, see
                                ///< examples/custom_offload.cpp)

  /// Name -> tile of every named engine: the fixed engines (kFixedEngines),
  /// eth<N>, aux<N> and the spare tiles as spare<N>.  This is the engine
  /// namespace p4lite programs compile against.
  rmt::SymbolTable tile_names() const;
};

/// One engine every PANIC NIC has: its name (fault targets, p4lite
/// symbols) and the PanicTopology member holding its tile.
struct FixedEngine {
  const char* name;
  EngineId PanicTopology::*tile;
};

/// The fixed engines in placement order: PanicNic::plan_topology puts them
/// after the interleaved Ethernet ports and RMT engines and before the aux
/// and spare tiles.  Their count is the fixed part of every NIC's tile
/// budget (Scenario::feasible, the fuzz generators' smallest mesh).
inline constexpr std::array<FixedEngine, 11> kFixedEngines = {{
    {"dma", &PanicTopology::dma},
    {"pcie", &PanicTopology::pcie},
    {"ipsec_rx", &PanicTopology::ipsec_rx},
    {"ipsec_tx", &PanicTopology::ipsec_tx},
    {"kvs", &PanicTopology::kvs},
    {"rdma", &PanicTopology::rdma},
    {"compression", &PanicTopology::compression},
    {"checksum", &PanicTopology::checksum},
    {"regex", &PanicTopology::regex},
    {"tso", &PanicTopology::tso},
    {"rate_limiter", &PanicTopology::rate_limiter},
}};

struct PanicConfig {
  noc::MeshConfig mesh{.k = 4, .channel_bits = 128};
  Frequency freq = Frequency::megahertz(500);
  int eth_ports = 2;
  int rmt_engines = 2;

  engines::SchedSpec sched_policy = engines::SchedKind::kSlack;
  engines::DropPolicy drop_policy = engines::DropPolicy::kDropArrival;
  std::size_t engine_queue_capacity = 256;
  std::size_t rmt_input_queue = 512;

  /// Per-RMT-engine flow-signature resolution cache (rmt/flow_cache.h).
  /// Host wall-clock optimization only: simulated stats are bit-identical
  /// with the cache off.  Default on.
  rmt::FlowCacheConfig rmt_cache;

  engines::DmaConfig dma;
  engines::KvsCacheMode kvs_mode = engines::KvsCacheMode::kLocation;
  std::size_t kvs_capacity = 4096;

  /// Slack assigned to messages whose tenant has no explicit entry.
  std::uint32_t default_slack = 1000;
  /// Per-tenant slack values (lower = higher priority), installed into the
  /// slack stage of the default program.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> tenant_slacks;

  /// Extra pass-through delay engines (HOL / chain-length experiments).
  int aux_engines = 0;
  Cycles aux_fixed_cycles = 100;

  /// Tiles reserved for caller-attached custom engines.
  int spare_tiles = 0;

  /// p4lite stages (rmt/p4lite.h) appended after the default RMT program
  /// (core/program_factory.cpp) and compiled against
  /// PanicTopology::tile_names(), so benchmarks, examples and scenario
  /// `program` blocks can add or override table entries.
  std::string program;

  // --- Fault injection & self-healing (fault/). ---
  /// Deterministic fault schedule.  When non-empty the NIC arms an
  /// injector with it, attaches the watchdog and the recovery-time
  /// tracker (fault.recovery.*), and enables host-driver TX
  /// timeout/retry.  Same seed + same plan => bit-identical runs in both
  /// kernel modes.
  fault::FaultPlan faults;
  fault::WatchdogConfig watchdog;
  /// Forces host-driver TX timeout/retry on even with an empty plan.
  bool enable_tx_retry = false;
  engines::HostDriverConfig host_driver;

  /// Degraded-mode admission when a kill empties an equivalence group:
  /// drop (fail fast, the default) or bounded backpressure (park up to
  /// `no_route_depth` messages per steering tile until a revive/spare
  /// re-opens the route; overflow is shed with fate kShed).
  fault::NoRoutePolicy on_no_route = fault::NoRoutePolicy::kDrop;
  std::size_t no_route_depth = 64;
};

}  // namespace panic::core
