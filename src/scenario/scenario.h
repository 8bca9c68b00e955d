// The one scenario language: a complete, self-describing PANIC design
// point — mesh dimensions, engine mix, chain program, scheduling policy,
// workload sources, timed injections, fault plan, seed and kernel mode —
// in a single declarative text file that every runner shares:
//
//   * `panic_run <file>` executes it under any kernel and emits result
//     JSON (tools/panic_run);
//   * the examples and benches are checked-in `.scenario` files plus thin
//     wrappers (examples/*.scenario, bench/*.scenario);
//   * the proptest generator emits it and `panic_fuzz --replay` consumes
//     it (`.panic` replays are the same schema).
//
// The format is line-oriented: one `key value` scalar per line, repeating
// `slack` / `workload` / `inject` / `host_tx` / `fault` lines, an optional
// heredoc-style `program <<END ... END` block holding p4lite source, and a
// mandatory `end` terminator.  The canonical header is `panic_scenario 1`.
// Serialization is canonical — fixed key order, optional keys emitted only
// when they differ from the default, doubles printed exactly — so
// parse→to_string→parse is a byte-identical fixpoint and parse(to_string())
// equals the scenario it printed, which is what lets the fuzz minimizer
// and the nightly soak exchange replays bit-exactly.
//
//   panic_scenario 1
//   name quickstart            # optional, labels result JSON
//   seed 42                    # generator provenance (0 = hand-written)
//   mesh_k 4
//   eth_ports 2
//   sched slack                # slack | fifo | wfq | stfq | edf | prio
//   weight 1 4                 # wfq weight for tenant 1 (default 1)
//   drop arrival               # arrival | evict
//   mode event                 # dense | event (CLI overrides)
//   warmup 0                   # cycles before the measured window
//   budget 50000               # measured cycles
//   slack <tenant> <slack>
//   workload port=0 kind=udp tenant=1 pattern=poisson gap=500 ...
//   inject at=2000 port=0 kind=kvs_get tenant=1 key=7 req=2
//   host_tx at=600000 port=0 src=10.0.0.1 dst=203.0.113.80 ...
//   fault_seed 99
//   fault kill aux0 @15000
//   program <<END
//     stage acl { ... }
//   END
//   end
//
// Every field is declared once in scenario.cpp: its key, member, range,
// print rule and doc.  Parsing, printing, feasible() and the field
// reference (`panic_run fields`, copied into DESIGN.md §9) all read that
// declaration, and every number goes through common/codec.h, so a value
// either means exactly what it says or the parse fails with
// `line N: <key>: <reason>`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_mode.h"
#include "common/units.h"
#include "core/panic_config.h"
#include "fault/fault_plan.h"
#include "workload/traffic_gen.h"

namespace panic::scenario {

// Caps on the fields that size allocations before a run starts.
inline constexpr int kMaxMeshK = 32;
inline constexpr std::size_t kMaxQueueCapacity = std::size_t{1} << 16;
inline constexpr std::size_t kMaxRmtInputQueue = std::size_t{1} << 16;
inline constexpr std::uint64_t kMaxPoolReserve = std::uint64_t{1} << 18;

/// One open-loop traffic source feeding one Ethernet port.
struct WorkloadSpec {
  enum class Kind : std::uint8_t {
    kUdp,       ///< fixed-size UDP frames (make_udp_factory)
    kMinFrame,  ///< minimum-size frames (make_min_frame_factory)
    kKvs,       ///< GET/SET mix with Zipf keys (make_kvs_factory)
    kEsp,       ///< ESP-encapsulated min UDP frames (WAN ingress)
    kUdpFill,   ///< zero-allocation UDP frames (make_udp_filler)
    kMinFill,   ///< zero-allocation min frames (make_min_frame_filler)
  };

  /// Telemetry name (`workload.<name>.generated`); empty = "w<index>".
  std::string name;
  int port = 0;  ///< Ethernet port index in [0, Scenario::eth_ports)
  Kind kind = Kind::kUdp;
  std::uint16_t tenant = 1;
  workload::ArrivalPattern pattern = workload::ArrivalPattern::kPoisson;
  double mean_gap_cycles = 500.0;
  Cycles on_cycles = 1000;
  Cycles off_cycles = 9000;
  /// 0 = unlimited (fuzz scenarios must be finite; see feasible()).
  std::uint64_t max_frames = 100;
  std::size_t frame_bytes = 256;  ///< kUdp/kUdpFill payload frame size
  /// kUdp/kMinFrame/kUdpFill/kMinFill: distinct 5-tuples the source cycles
  /// through (UDP source port `40000 + seq % flows`).  Sets the traffic's
  /// flow locality — small values model steady flows (RMT flow-cache
  /// friendly), the 1024 default models a wide per-packet flow churn.
  std::uint32_t flows = 1024;
  std::uint16_t src_port = 40000;
  std::uint16_t dst_port = 9;
  /// kKvs: fraction of requests arriving WAN-encrypted.  The generator
  /// only emits 0.0 or 1.0 so every flow has a single chain (mixed
  /// fractions would legitimately reorder a tenant's replies between the
  /// plain and IPSec paths, blinding the ordering oracle).
  double wan_fraction = 0.0;
  std::uint64_t seed = 1;
  /// Source / destination IPv4; empty = 10.<tenant>.0.2 / 10.0.0.1.
  std::string src;
  std::string dst;
  /// kEsp: security parameter index; sequence numbers start at 1.
  std::uint32_t spi = 0x2001;

  bool operator==(const WorkloadSpec&) const = default;
};

/// One hand-placed frame delivered into an Ethernet port at an exact
/// cycle (the scenario-file form of PanicNic::inject_rx between runs —
/// scheduled through the event queue, so cycle-identical in every
/// kernel).
struct InjectSpec {
  enum class Kind : std::uint8_t {
    kUdp,     ///< frames::min_udp(src, dst, sport, dport)
    kKvsGet,  ///< frames::kvs_get(src, dst, tenant, key, req)
    kKvsSet,  ///< frames::kvs_set(src, dst, tenant, key, req, bytes)
    kEsp,     ///< IpsecEngine::encapsulate(min_udp(...), spi, seq)
  };

  Cycle at = 0;
  int port = 0;
  Kind kind = Kind::kUdp;
  std::string src;  ///< empty = 10.1.0.2
  std::string dst;  ///< empty = 10.0.0.1
  std::uint16_t src_port = 40000;
  std::uint16_t dst_port = 9;
  std::uint16_t tenant = 1;      ///< kKvs*: in-frame tenant id
  std::uint64_t key = 0;         ///< kKvs*
  std::uint32_t request_id = 0;  ///< kKvs*
  std::size_t value_bytes = 64;  ///< kKvsSet value size
  std::uint32_t spi = 0x2001;    ///< kEsp
  std::uint32_t seq = 1;         ///< kEsp sequence number
  /// kEsp: flip a byte of the auth tag so the frame fails authentication
  /// (the tampered-packet demonstration of examples/ipsec_gateway).
  bool tamper = false;

  bool operator==(const InjectSpec&) const = default;
};

/// One host-originated TX frame posted to the driver at an exact cycle
/// (egress-path traffic: TX descriptors -> checksum -> encrypt -> wire).
struct HostTxSpec {
  Cycle at = 0;
  int port = 0;
  std::string src;  ///< empty = 10.0.0.1
  std::string dst;  ///< empty = 203.0.113.80 (the default WAN prefix)
  std::uint16_t src_port = 9000;
  std::uint16_t dst_port = 4500;
  std::size_t payload_bytes = 200;

  bool operator==(const HostTxSpec&) const = default;
};

/// The full scenario-language schema, in canonical serialization order:
/// one line per key with its syntax (range or alternatives), default and
/// doc, under a `[section]` header per line type (`panic_run fields`).
std::string field_reference();

struct Scenario {
  /// Scenario name, used to label result JSON; empty for generated fuzz
  /// scenarios.
  std::string name;

  /// The generator seed this scenario was drawn from (0 = hand-written).
  /// Recorded for provenance; replay does not re-generate.
  std::uint64_t seed = 0;

  // --- Topology. ---
  int mesh_k = 4;
  int channel_bits = 128;
  int freq_mhz = 500;
  int eth_ports = 2;
  int rmt_engines = 2;
  int aux_engines = 0;
  int spare_tiles = 0;
  /// NoC routing algorithm (`routing xy | westfirst`); the topology-sweep
  /// ablation axis.
  noc::RoutingAlgo routing = noc::RoutingAlgo::kXY;

  // --- Scheduling / queueing. ---
  /// The PIFO rank policy every engine queue runs (`sched slack | fifo |
  /// wfq | stfq | edf | prio | pifo rank=<<END`).  Custom programs carry
  /// their source in the spec; `weight <tenant> <w>` lines fill the
  /// spec's weight table (read by the wfq built-in as `weight`).
  engines::SchedSpec sched_policy = engines::SchedKind::kSlack;
  engines::DropPolicy drop_policy = engines::DropPolicy::kDropArrival;
  std::size_t engine_queue_capacity = 256;
  std::size_t rmt_input_queue = 512;
  /// RMT flow-signature resolution cache (rmt/flow_cache.h).  `rmt_cache
  /// off` disables it; `rmt_cache sets=N ways=N` sizes it.  Semantically
  /// invisible either way (host wall-clock optimization only).
  bool rmt_cache_enabled = true;
  std::uint32_t rmt_cache_sets = 64;
  std::uint32_t rmt_cache_ways = 4;
  Cycles aux_fixed_cycles = 100;
  Cycles dma_base_latency = 75;
  double dma_bytes_per_cycle = 32.0;
  double dma_contention_mean = 0.0;
  std::uint32_t default_slack = 1000;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> tenant_slacks;
  /// Pre-warm the MessagePool free list to this many entries before the
  /// run (0 = none) so saturated windows are pool-miss-free.
  std::uint64_t pool_reserve = 0;

  // --- Execution. ---
  /// Cycles before the measured window (pool fill / cache warm).
  Cycles warmup_cycles = 0;
  /// Measured cycles (after warmup).
  Cycles budget_cycles = 50000;
  /// The kernel this scenario runs under by default; --mode overrides.
  SimMode mode = SimMode::kEventDriven;

  std::vector<WorkloadSpec> workloads;
  std::vector<InjectSpec> injects;
  std::vector<HostTxSpec> host_txs;
  fault::FaultPlan faults;

  /// Degraded-mode admission when steering finds no live route
  /// (`on_no_route drop | backpressure`): drop sheds immediately with
  /// fate kFaulted; backpressure parks up to `no_route_depth` messages
  /// per steering tile until a revive/spare bumps the steering
  /// generation, shedding overflow with fate kShed.
  fault::NoRoutePolicy on_no_route = fault::NoRoutePolicy::kDrop;
  std::size_t no_route_depth = 64;

  /// p4lite source compiled into extra RMT stages after the default
  /// program (the `program <<END ... END` block); empty = stock program.
  /// Engine names resolve through the full topology symbol table (dma,
  /// pcie, ipsec_rx, ipsec_tx, kvs, rdma, compression, checksum, regex,
  /// tso, rate_limiter, eth<N>, aux<N>).
  std::string program;

  /// Whether this scenario can be built at all: every field inside its
  /// declared range, the 11 fixed engines plus ports/RMT/aux inside the
  /// k*k mesh (PanicNic::plan_topology throws otherwise), and every
  /// workload/inject/host_tx on an existing port.  `strict_finite`
  /// additionally requires every trace to be finite (the fuzz harness's
  /// termination precondition; hand-written scenarios may run unlimited
  /// sources under a cycle budget).  When infeasible, *why (when non-null)
  /// reads "<field>: <reason>".
  bool feasible(bool strict_finite = false, std::string* why = nullptr) const;

  /// Sum of max_frames across workloads (the <=10-packet shrink target of
  /// the harness self-test).
  std::uint64_t total_frames() const;

  /// The PanicConfig this scenario builds (topology, policies, faults,
  /// program).
  core::PanicConfig to_config() const;

  /// Canonical rendering; round-trips through parse() byte-identically.
  std::string to_string() const;

  /// Parses the scenario format (`panic_scenario 1` header).  nullopt (and
  /// "line N: <key>: <reason>" in *error when non-null) on malformed
  /// input.
  static std::optional<Scenario> parse(const std::string& text,
                                       std::string* error = nullptr);

  /// to_string() to / parse() from a file.
  bool save(const std::string& path) const;
  static std::optional<Scenario> load(const std::string& path,
                                      std::string* error = nullptr);

  bool operator==(const Scenario&) const = default;
};

}  // namespace panic::scenario
