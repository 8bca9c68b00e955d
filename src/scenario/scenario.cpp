#include "scenario/scenario.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/log.h"
#include "engines/rank_program.h"
#include "net/addr.h"
#include "rmt/p4lite.h"

namespace panic::scenario {

namespace {

/// Tiles consumed by the fixed engine set (dma, pcie, ipsec x2, kvs, rdma,
/// compression, checksum, regex, tso, rate_limiter) — must match
/// PanicNic::plan_topology.
constexpr int kFixedEngineTiles = 11;

const char* pattern_name(workload::ArrivalPattern p) {
  switch (p) {
    case workload::ArrivalPattern::kConstantRate: return "const";
    case workload::ArrivalPattern::kPoisson: return "poisson";
    case workload::ArrivalPattern::kOnOff: return "onoff";
  }
  return "?";
}

bool parse_pattern(const std::string& s, workload::ArrivalPattern* out) {
  if (s == "const") *out = workload::ArrivalPattern::kConstantRate;
  else if (s == "poisson") *out = workload::ArrivalPattern::kPoisson;
  else if (s == "onoff") *out = workload::ArrivalPattern::kOnOff;
  else return false;
  return true;
}

bool parse_kind(const std::string& s, WorkloadSpec::Kind* out) {
  if (s == "udp") *out = WorkloadSpec::Kind::kUdp;
  else if (s == "min") *out = WorkloadSpec::Kind::kMinFrame;
  else if (s == "kvs") *out = WorkloadSpec::Kind::kKvs;
  else if (s == "esp") *out = WorkloadSpec::Kind::kEsp;
  else if (s == "udp_fill") *out = WorkloadSpec::Kind::kUdpFill;
  else if (s == "min_fill") *out = WorkloadSpec::Kind::kMinFill;
  else return false;
  return true;
}

bool parse_inject_kind(const std::string& s, InjectSpec::Kind* out) {
  if (s == "udp") *out = InjectSpec::Kind::kUdp;
  else if (s == "kvs_get") *out = InjectSpec::Kind::kKvsGet;
  else if (s == "kvs_set") *out = InjectSpec::Kind::kKvsSet;
  else if (s == "esp") *out = InjectSpec::Kind::kEsp;
  else return false;
  return true;
}

bool fail(std::string* error, int line, const std::string& reason) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + reason;
  }
  return false;
}

/// Splits "key=value" (returns false when '=' is missing).
bool split_kv(const std::string& tok, std::string* key, std::string* val) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return false;
  *key = tok.substr(0, eq);
  *val = tok.substr(eq + 1);
  return true;
}

bool check_addr(const std::string& val, const std::string& key,
                std::string* reason) {
  if (!Ipv4Addr::parse(val).has_value()) {
    *reason = "bad IPv4 address for '" + key + "': '" + val + "'";
    return false;
  }
  return true;
}

bool parse_workload_line(const std::string& rest, WorkloadSpec* spec,
                         std::string* reason) {
  std::istringstream in(rest);
  std::string tok;
  while (in >> tok) {
    std::string key, val;
    if (!split_kv(tok, &key, &val)) {
      *reason = "expected key=value, got '" + tok + "'";
      return false;
    }
    try {
      if (key == "name") spec->name = val;
      else if (key == "port") spec->port = std::stoi(val);
      else if (key == "kind") {
        if (!parse_kind(val, &spec->kind)) {
          *reason = "unknown workload kind '" + val + "'";
          return false;
        }
      } else if (key == "tenant") {
        spec->tenant = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "pattern") {
        if (!parse_pattern(val, &spec->pattern)) {
          *reason = "unknown arrival pattern '" + val + "'";
          return false;
        }
      } else if (key == "gap") spec->mean_gap_cycles = std::stod(val);
      else if (key == "on") spec->on_cycles = std::stoull(val);
      else if (key == "off") spec->off_cycles = std::stoull(val);
      else if (key == "frames") spec->max_frames = std::stoull(val);
      else if (key == "bytes") spec->frame_bytes = std::stoull(val);
      else if (key == "flows") {
        spec->flows = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "sport") {
        spec->src_port = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "dport") {
        spec->dst_port = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "wan") spec->wan_fraction = std::stod(val);
      else if (key == "seed") spec->seed = std::stoull(val);
      else if (key == "src") {
        if (!check_addr(val, key, reason)) return false;
        spec->src = val;
      } else if (key == "dst") {
        if (!check_addr(val, key, reason)) return false;
        spec->dst = val;
      } else if (key == "spi") {
        spec->spi = static_cast<std::uint32_t>(std::stoul(val, nullptr, 0));
      } else {
        *reason = "unknown workload key '" + key + "'";
        return false;
      }
    } catch (const std::exception&) {
      *reason = "bad value for '" + key + "': '" + val + "'";
      return false;
    }
  }
  return true;
}

bool parse_inject_line(const std::string& rest, InjectSpec* spec,
                       std::string* reason) {
  std::istringstream in(rest);
  std::string tok;
  bool saw_kind = false;
  while (in >> tok) {
    std::string key, val;
    if (!split_kv(tok, &key, &val)) {
      *reason = "expected key=value, got '" + tok + "'";
      return false;
    }
    try {
      if (key == "at") spec->at = std::stoull(val);
      else if (key == "port") spec->port = std::stoi(val);
      else if (key == "kind") {
        if (!parse_inject_kind(val, &spec->kind)) {
          *reason = "unknown inject kind '" + val + "'";
          return false;
        }
        saw_kind = true;
      } else if (key == "src") {
        if (!check_addr(val, key, reason)) return false;
        spec->src = val;
      } else if (key == "dst") {
        if (!check_addr(val, key, reason)) return false;
        spec->dst = val;
      } else if (key == "sport") {
        spec->src_port = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "dport") {
        spec->dst_port = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "tenant") {
        spec->tenant = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "key") spec->key = std::stoull(val);
      else if (key == "req") {
        spec->request_id = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "bytes") spec->value_bytes = std::stoull(val);
      else if (key == "spi") {
        spec->spi = static_cast<std::uint32_t>(std::stoul(val, nullptr, 0));
      } else if (key == "seq") {
        spec->seq = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "tamper") spec->tamper = std::stoi(val) != 0;
      else {
        *reason = "unknown inject key '" + key + "'";
        return false;
      }
    } catch (const std::exception&) {
      *reason = "bad value for '" + key + "': '" + val + "'";
      return false;
    }
  }
  if (!saw_kind) {
    *reason = "inject line needs kind=udp|kvs_get|kvs_set|esp";
    return false;
  }
  return true;
}

bool parse_host_tx_line(const std::string& rest, HostTxSpec* spec,
                        std::string* reason) {
  std::istringstream in(rest);
  std::string tok;
  while (in >> tok) {
    std::string key, val;
    if (!split_kv(tok, &key, &val)) {
      *reason = "expected key=value, got '" + tok + "'";
      return false;
    }
    try {
      if (key == "at") spec->at = std::stoull(val);
      else if (key == "port") spec->port = std::stoi(val);
      else if (key == "src") {
        if (!check_addr(val, key, reason)) return false;
        spec->src = val;
      } else if (key == "dst") {
        if (!check_addr(val, key, reason)) return false;
        spec->dst = val;
      } else if (key == "sport") {
        spec->src_port = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "dport") {
        spec->dst_port = static_cast<std::uint16_t>(std::stoul(val));
      } else if (key == "bytes") spec->payload_bytes = std::stoull(val);
      else {
        *reason = "unknown host_tx key '" + key + "'";
        return false;
      }
    } catch (const std::exception&) {
      *reason = "bad value for '" + key + "': '" + val + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

const char* to_string(WorkloadSpec::Kind kind) {
  switch (kind) {
    case WorkloadSpec::Kind::kUdp: return "udp";
    case WorkloadSpec::Kind::kMinFrame: return "min";
    case WorkloadSpec::Kind::kKvs: return "kvs";
    case WorkloadSpec::Kind::kEsp: return "esp";
    case WorkloadSpec::Kind::kUdpFill: return "udp_fill";
    case WorkloadSpec::Kind::kMinFill: return "min_fill";
  }
  return "?";
}

const char* to_string(InjectSpec::Kind kind) {
  switch (kind) {
    case InjectSpec::Kind::kUdp: return "udp";
    case InjectSpec::Kind::kKvsGet: return "kvs_get";
    case InjectSpec::Kind::kKvsSet: return "kvs_set";
    case InjectSpec::Kind::kEsp: return "esp";
  }
  return "?";
}

const std::vector<FieldDoc>& field_reference() {
  static const std::vector<FieldDoc> kFields = {
      // --- Scalars, in canonical serialization order. ---
      {"scalar", "name", "<string>", "(empty)",
       "scenario label, echoed in result JSON"},
      {"scalar", "seed", "<uint64>", "0",
       "generator provenance seed (0 = hand-written)"},
      {"scalar", "mesh_k", "<int>", "4", "mesh side length (k*k tiles)"},
      {"scalar", "channel_bits", "<int>", "128", "NoC channel width"},
      {"scalar", "freq_mhz", "<int>", "500", "core clock frequency"},
      {"scalar", "eth_ports", "<int>", "2", "Ethernet port count"},
      {"scalar", "rmt_engines", "<int>", "2", "RMT pipeline engine count"},
      {"scalar", "aux_engines", "<int>", "0",
       "extra pass-through delay engines"},
      {"scalar", "aux_fixed_cycles", "<cycles>", "100",
       "aux engine fixed service latency"},
      {"scalar", "spare_tiles", "<int>", "0",
       "tiles reserved for caller-attached engines"},
      {"scalar", "routing", "xy | westfirst", "xy",
       "NoC routing algorithm (dimension-ordered XY or west-first "
       "turn-model)"},
      {"scalar", "sched",
       "slack | fifo | wfq | stfq | edf | prio | pifo rank=<<END ... END",
       "slack",
       "engine queue PIFO rank policy; `pifo rank=<<END` opens a heredoc "
       "holding a custom rank program (engines/rank_program.h)"},
      {"scalar", "weight", "<tenant> <weight>", "(none; absent tenants = 1)",
       "per-tenant wfq weight entry, read by rank programs as `weight`; "
       "repeats"},
      {"scalar", "drop", "arrival | evict", "arrival",
       "full-queue drop policy"},
      {"scalar", "queue_capacity", "<size>", "256",
       "per-engine queue capacity"},
      {"scalar", "rmt_input_queue", "<size>", "512",
       "RMT engine input queue capacity"},
      {"scalar", "rmt_cache", "off | sets=<n> ways=<n>", "sets=64 ways=4",
       "RMT flow-signature resolution cache (host-time only; rmt.cache.* "
       "metrics)"},
      {"scalar", "dma_base_latency", "<cycles>", "75",
       "DMA fixed service latency"},
      {"scalar", "dma_bytes_per_cycle", "<double>", "32",
       "DMA payload bandwidth per cycle"},
      {"scalar", "dma_contention", "<double>", "0",
       "mean of the DMA contention jitter (0 = none)"},
      {"scalar", "default_slack", "<uint32>", "1000",
       "slack for tenants without an explicit entry"},
      {"scalar", "pool_reserve", "<count>", "0",
       "pre-warm the MessagePool free list to this depth before the run"},
      {"scalar", "warmup", "<cycles>", "0",
       "cycles before the measured window"},
      {"scalar", "budget", "<cycles>", "50000", "measured cycles"},
      {"scalar", "mode", "dense | event", "event",
       "default kernel; panic_run --mode overrides"},
      {"scalar", "slack", "<tenant> <slack>", "(none)",
       "per-tenant slack entry; repeats"},
      {"scalar", "on_no_route", "drop | backpressure", "drop",
       "degraded-mode admission when steering has no live route: drop "
       "(fate kFaulted) or bounded parking until a revive/spare re-opens "
       "the route (overflow fate kShed)"},
      {"scalar", "no_route_depth", "<size>", "64",
       "backpressure parking capacity per steering tile"},
      {"scalar", "fault_seed", "<uint64>", "1", "fault plan seed"},
      {"scalar", "fault", "<fault-plan line>", "(none)",
       "fault/fault_plan.h grammar, e.g. 'kill aux0 @15000', 'revive aux0 "
       "@30000 warmup=500', 'spare aux1 for=aux0 @30000'; repeats"},
      {"scalar", "program", "<<END ... END", "(none)",
       "p4lite stages appended to the default RMT program"},
      {"scalar", "end", "", "", "mandatory terminator"},
      // --- workload line keys. ---
      {"workload", "name", "<string>", "w<index>",
       "telemetry name (workload.<name>.generated)"},
      {"workload", "port", "<int>", "0", "Ethernet port fed by this source"},
      {"workload", "kind", "udp | min | kvs | esp | udp_fill | min_fill",
       "udp", "frame factory"},
      {"workload", "tenant", "<uint16>", "1", "tenant id stamped on frames"},
      {"workload", "pattern", "const | poisson | onoff", "poisson",
       "arrival process"},
      {"workload", "gap", "<double>", "500", "mean inter-arrival cycles"},
      {"workload", "on", "<cycles>", "1000", "onoff burst duration"},
      {"workload", "off", "<cycles>", "9000", "onoff idle duration"},
      {"workload", "frames", "<uint64>", "100",
       "stop after this many frames (0 = unlimited)"},
      {"workload", "bytes", "<size>", "256", "udp/udp_fill frame size"},
      {"workload", "flows", "<uint32>", "1024",
       "distinct 5-tuples cycled (sport 40000+seq%flows); flow locality"},
      {"workload", "sport", "<uint16>", "40000", "UDP source port (esp)"},
      {"workload", "dport", "<uint16>", "9", "UDP destination port"},
      {"workload", "wan", "<double>", "0",
       "kvs: fraction arriving WAN-encrypted (0 or 1)"},
      {"workload", "seed", "<uint64>", "1", "per-source random stream"},
      {"workload", "src", "<a.b.c.d>", "10.<tenant>.0.2", "client IPv4"},
      {"workload", "dst", "<a.b.c.d>", "10.0.0.1", "server IPv4"},
      {"workload", "spi", "<uint32>", "0x2001", "esp: SPI (seq starts at 1)"},
      // --- inject line keys. ---
      {"inject", "at", "<cycle>", "0", "injection cycle (event-scheduled)"},
      {"inject", "port", "<int>", "0", "Ethernet port"},
      {"inject", "kind", "udp | kvs_get | kvs_set | esp", "(required)",
       "frame constructor"},
      {"inject", "src", "<a.b.c.d>", "10.1.0.2", "source IPv4"},
      {"inject", "dst", "<a.b.c.d>", "10.0.0.1", "destination IPv4"},
      {"inject", "sport", "<uint16>", "40000", "UDP source port"},
      {"inject", "dport", "<uint16>", "9", "UDP destination port"},
      {"inject", "tenant", "<uint16>", "1", "kvs: in-frame tenant"},
      {"inject", "key", "<uint64>", "0", "kvs: key"},
      {"inject", "req", "<uint32>", "0", "kvs: request id"},
      {"inject", "bytes", "<size>", "64", "kvs_set: value size"},
      {"inject", "spi", "<uint32>", "0x2001", "esp: SPI"},
      {"inject", "seq", "<uint32>", "1", "esp: sequence number"},
      {"inject", "tamper", "0 | 1", "0",
       "esp: corrupt the auth tag (frame must be dropped)"},
      // --- host_tx line keys. ---
      {"host_tx", "at", "<cycle>", "0", "post cycle (event-scheduled)"},
      {"host_tx", "port", "<int>", "0", "egress port"},
      {"host_tx", "src", "<a.b.c.d>", "10.0.0.1", "source IPv4"},
      {"host_tx", "dst", "<a.b.c.d>", "203.0.113.80",
       "destination IPv4 (WAN prefix -> encrypted on egress)"},
      {"host_tx", "sport", "<uint16>", "9000", "UDP source port"},
      {"host_tx", "dport", "<uint16>", "4500", "UDP destination port"},
      {"host_tx", "bytes", "<size>", "200", "payload size"},
  };
  return kFields;
}

bool Scenario::feasible(bool strict_finite) const {
  if (mesh_k < 2 || eth_ports < 1 || rmt_engines < 1 || aux_engines < 0 ||
      spare_tiles < 0) {
    return false;
  }
  const int tiles = mesh_k * mesh_k;
  if (kFixedEngineTiles + eth_ports + rmt_engines + aux_engines +
          spare_tiles > tiles) {
    return false;
  }
  if (engine_queue_capacity == 0 || rmt_input_queue == 0) return false;
  for (const auto& [tenant, weight] : sched_policy.weights) {
    (void)tenant;
    if (weight == 0) return false;  // wfq divides by weight (total, but silly)
  }
  if (sched_policy.kind == engines::SchedKind::kCustom) {
    std::string perror;
    if (engines::RankProgram::compile_spec(sched_policy, &perror) == nullptr) {
      return false;  // SchedulerQueue construction would throw
    }
  }
  if (on_no_route == fault::NoRoutePolicy::kBackpressure &&
      no_route_depth == 0) {
    return false;  // a zero-depth parking buffer sheds everything
  }
  if (rmt_cache_sets == 0 || rmt_cache_sets > (1u << 20)) return false;
  if (rmt_cache_ways == 0 || rmt_cache_ways > 1024) return false;
  if (dma_bytes_per_cycle <= 0.0) return false;
  if (budget_cycles == 0) return false;
  if (channel_bits <= 0 || freq_mhz <= 0) return false;
  for (const WorkloadSpec& w : workloads) {
    if (w.port < 0 || w.port >= eth_ports) return false;
    if (strict_finite && w.max_frames == 0) return false;  // must terminate
    if (w.mean_gap_cycles <= 0.0) return false;
    // Source ports stay inside [40000, 41024): the range the default
    // program's LB hash was tuned against.
    if (w.flows == 0 || w.flows > 1024) return false;
  }
  for (const InjectSpec& i : injects) {
    if (i.port < 0 || i.port >= eth_ports) return false;
  }
  for (const HostTxSpec& t : host_txs) {
    if (t.port < 0 || t.port >= eth_ports) return false;
  }
  return true;
}

std::uint64_t Scenario::total_frames() const {
  std::uint64_t total = 0;
  for (const WorkloadSpec& w : workloads) total += w.max_frames;
  return total + injects.size() + host_txs.size();
}

core::PanicConfig Scenario::to_config() const {
  core::PanicConfig cfg;
  cfg.mesh.k = mesh_k;
  cfg.mesh.channel_bits = channel_bits;
  cfg.mesh.routing = routing;
  cfg.freq = Frequency::megahertz(freq_mhz);
  cfg.eth_ports = eth_ports;
  cfg.rmt_engines = rmt_engines;
  cfg.aux_engines = aux_engines;
  cfg.spare_tiles = spare_tiles;
  cfg.sched_policy = sched_policy;
  cfg.drop_policy = drop_policy;
  cfg.engine_queue_capacity = engine_queue_capacity;
  cfg.rmt_input_queue = rmt_input_queue;
  cfg.rmt_cache.enabled = rmt_cache_enabled;
  cfg.rmt_cache.sets = rmt_cache_sets;
  cfg.rmt_cache.ways = rmt_cache_ways;
  cfg.aux_fixed_cycles = aux_fixed_cycles;
  cfg.dma.base_latency = dma_base_latency;
  cfg.dma.bytes_per_cycle = dma_bytes_per_cycle;
  cfg.dma.contention_mean = dma_contention_mean;
  cfg.default_slack = default_slack;
  cfg.tenant_slacks = tenant_slacks;
  cfg.faults = faults;
  cfg.on_no_route = on_no_route;
  cfg.no_route_depth = no_route_depth;
  if (!program.empty()) {
    // Compiled against the NIC's actual tile placement once the default
    // program exists.  The full engine namespace is exposed; a compile
    // error aborts the NIC build (PanicNic construction is where every
    // other config error surfaces too).
    const std::string source = program;
    cfg.customize_program = [source](rmt::RmtProgram& prog,
                                     const core::PanicTopology& topo) {
      rmt::SymbolTable symbols = {
          {"dma", topo.dma.value},
          {"pcie", topo.pcie.value},
          {"ipsec_rx", topo.ipsec_rx.value},
          {"ipsec_tx", topo.ipsec_tx.value},
          {"kvs", topo.kvs.value},
          {"rdma", topo.rdma.value},
          {"compression", topo.compression.value},
          {"checksum", topo.checksum.value},
          {"regex", topo.regex.value},
          {"tso", topo.tso.value},
          {"rate_limiter", topo.rate_limiter.value},
      };
      for (std::size_t i = 0; i < topo.eth_ports.size(); ++i) {
        symbols["eth" + std::to_string(i)] = topo.eth_ports[i].value;
      }
      for (std::size_t i = 0; i < topo.aux.size(); ++i) {
        symbols["aux" + std::to_string(i)] = topo.aux[i].value;
      }
      std::string error;
      if (!rmt::append_p4lite_stages(prog, source, symbols, &error)) {
        throw std::runtime_error("scenario program: " + error);
      }
    };
  }
  return cfg;
}

std::string Scenario::to_string() const {
  std::ostringstream out;
  out << "panic_scenario 1\n";
  if (!name.empty()) out << "name " << name << "\n";
  out << "seed " << seed << "\n";
  out << "mesh_k " << mesh_k << "\n";
  if (channel_bits != 128) out << "channel_bits " << channel_bits << "\n";
  if (freq_mhz != 500) out << "freq_mhz " << freq_mhz << "\n";
  out << "eth_ports " << eth_ports << "\n";
  out << "rmt_engines " << rmt_engines << "\n";
  out << "aux_engines " << aux_engines << "\n";
  if (aux_fixed_cycles != 100) {
    out << "aux_fixed_cycles " << aux_fixed_cycles << "\n";
  }
  if (spare_tiles != 0) out << "spare_tiles " << spare_tiles << "\n";
  if (routing != noc::RoutingAlgo::kXY) out << "routing westfirst\n";
  if (sched_policy.kind == engines::SchedKind::kCustom) {
    out << "sched pifo rank=<<END\n" << sched_policy.rank_source;
    if (!sched_policy.rank_source.empty() &&
        sched_policy.rank_source.back() != '\n') {
      out << "\n";
    }
    out << "END\n";
  } else {
    out << "sched " << engines::to_string(sched_policy.kind) << "\n";
  }
  for (const auto& [tenant, weight] : sched_policy.weights) {
    out << "weight " << tenant << " " << weight << "\n";
  }
  out << "drop "
      << (drop_policy == engines::DropPolicy::kDropArrival ? "arrival"
                                                           : "evict")
      << "\n";
  out << "queue_capacity " << engine_queue_capacity << "\n";
  out << "rmt_input_queue " << rmt_input_queue << "\n";
  if (!rmt_cache_enabled) {
    out << "rmt_cache off\n";
  } else if (rmt_cache_sets != 64 || rmt_cache_ways != 4) {
    out << "rmt_cache sets=" << rmt_cache_sets << " ways=" << rmt_cache_ways
        << "\n";
  }
  if (dma_base_latency != 75) {
    out << "dma_base_latency " << dma_base_latency << "\n";
  }
  if (dma_bytes_per_cycle != 32.0) {
    out << "dma_bytes_per_cycle " << dma_bytes_per_cycle << "\n";
  }
  out << "dma_contention " << dma_contention_mean << "\n";
  out << "default_slack " << default_slack << "\n";
  if (pool_reserve != 0) out << "pool_reserve " << pool_reserve << "\n";
  if (warmup_cycles != 0) out << "warmup " << warmup_cycles << "\n";
  out << "budget " << budget_cycles << "\n";
  if (mode != SimMode::kEventDriven) {
    out << "mode " << panic::to_string(mode) << "\n";
  }
  for (const auto& [tenant, slack] : tenant_slacks) {
    out << "slack " << tenant << " " << slack << "\n";
  }
  for (const WorkloadSpec& w : workloads) {
    out << "workload";
    if (!w.name.empty()) out << " name=" << w.name;
    out << " port=" << w.port << " kind=" << scenario::to_string(w.kind)
        << " tenant=" << w.tenant << " pattern=" << pattern_name(w.pattern)
        << " gap=" << w.mean_gap_cycles << " on=" << w.on_cycles
        << " off=" << w.off_cycles << " frames=" << w.max_frames
        << " bytes=" << w.frame_bytes;
    if (w.flows != 1024) out << " flows=" << w.flows;
    if (w.src_port != 40000) out << " sport=" << w.src_port;
    out << " dport=" << w.dst_port << " wan=" << w.wan_fraction
        << " seed=" << w.seed;
    if (!w.src.empty()) out << " src=" << w.src;
    if (!w.dst.empty()) out << " dst=" << w.dst;
    if (w.kind == WorkloadSpec::Kind::kEsp) out << " spi=" << w.spi;
    out << "\n";
  }
  for (const InjectSpec& i : injects) {
    out << "inject at=" << i.at << " port=" << i.port
        << " kind=" << scenario::to_string(i.kind);
    if (!i.src.empty()) out << " src=" << i.src;
    if (!i.dst.empty()) out << " dst=" << i.dst;
    if (i.kind == InjectSpec::Kind::kUdp || i.kind == InjectSpec::Kind::kEsp) {
      if (i.src_port != 40000) out << " sport=" << i.src_port;
      if (i.dst_port != 9) out << " dport=" << i.dst_port;
    }
    if (i.kind == InjectSpec::Kind::kKvsGet ||
        i.kind == InjectSpec::Kind::kKvsSet) {
      out << " tenant=" << i.tenant << " key=" << i.key
          << " req=" << i.request_id;
      if (i.kind == InjectSpec::Kind::kKvsSet) out << " bytes=" << i.value_bytes;
    }
    if (i.kind == InjectSpec::Kind::kEsp) {
      out << " spi=" << i.spi << " seq=" << i.seq;
      if (i.tamper) out << " tamper=1";
    }
    out << "\n";
  }
  for (const HostTxSpec& t : host_txs) {
    out << "host_tx at=" << t.at << " port=" << t.port;
    if (!t.src.empty()) out << " src=" << t.src;
    if (!t.dst.empty()) out << " dst=" << t.dst;
    out << " sport=" << t.src_port << " dport=" << t.dst_port
        << " bytes=" << t.payload_bytes << "\n";
  }
  if (on_no_route != fault::NoRoutePolicy::kDrop) {
    out << "on_no_route backpressure\n";
  }
  if (no_route_depth != 64) out << "no_route_depth " << no_route_depth << "\n";
  if (!faults.empty()) {
    out << "fault_seed " << faults.seed << "\n";
    for (const fault::FaultSpec& spec : faults.faults()) {
      out << "fault " << spec.to_string() << "\n";
    }
  }
  if (!program.empty()) {
    out << "program <<END\n" << program;
    if (program.back() != '\n') out << "\n";
    out << "END\n";
  }
  out << "end\n";
  return out.str();
}

std::optional<Scenario> Scenario::parse(const std::string& text,
                                        std::string* error) {
  Scenario s;
  s.faults = fault::FaultPlan{};
  std::vector<std::string> fault_lines;
  std::uint64_t fault_seed = 1;

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim + skip blanks/comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    if (line[0] == '#') continue;

    std::istringstream ls(line);
    std::string key;
    ls >> key;
    std::string rest;
    std::getline(ls, rest);
    if (!rest.empty() && rest[0] == ' ') rest = rest.substr(1);

    if (!saw_header) {
      if (key != "panic_scenario" || rest != "1") {
        fail(error, lineno, "expected 'panic_scenario 1' header");
        return std::nullopt;
      }
      saw_header = true;
      continue;
    }
    try {
      if (key == "name") s.name = rest;
      else if (key == "seed") s.seed = std::stoull(rest);
      else if (key == "mesh_k") s.mesh_k = std::stoi(rest);
      else if (key == "channel_bits") s.channel_bits = std::stoi(rest);
      else if (key == "freq_mhz") s.freq_mhz = std::stoi(rest);
      else if (key == "eth_ports") s.eth_ports = std::stoi(rest);
      else if (key == "rmt_engines") s.rmt_engines = std::stoi(rest);
      else if (key == "aux_engines") s.aux_engines = std::stoi(rest);
      else if (key == "spare_tiles") s.spare_tiles = std::stoi(rest);
      else if (key == "routing") {
        if (rest == "xy") s.routing = noc::RoutingAlgo::kXY;
        else if (rest == "westfirst") s.routing = noc::RoutingAlgo::kWestFirst;
        else {
          fail(error, lineno, "unknown routing '" + rest + "' (xy|westfirst)");
          return std::nullopt;
        }
      }
      else if (key == "sched") {
        if (rest == "pifo rank=<<END") {
          // Custom rank program, heredoc like `program <<END`.
          const int open_line = lineno;
          std::string body;
          bool closed = false;
          while (std::getline(in, line)) {
            ++lineno;
            std::string trimmed = line;
            if (!trimmed.empty() && trimmed.back() == '\r') trimmed.pop_back();
            if (trimmed == "END") {
              closed = true;
              break;
            }
            body += trimmed;
            body += '\n';
          }
          if (!closed) {
            fail(error, lineno, "sched rank block missing END terminator");
            return std::nullopt;
          }
          // Validate up front so a bad program fails at parse time with
          // the compiler's own "line N: reason" (N into the heredoc).
          std::string perror;
          if (!engines::RankProgram::compile(body, &perror).has_value()) {
            fail(error, open_line, "sched rank program: " + perror);
            return std::nullopt;
          }
          s.sched_policy.kind = engines::SchedKind::kCustom;
          s.sched_policy.rank_source = body;
        } else if (const auto kind = engines::sched_kind_from_name(rest);
                   kind.has_value() && *kind != engines::SchedKind::kCustom) {
          s.sched_policy.kind = *kind;
          s.sched_policy.rank_source.clear();
        } else {
          fail(error, lineno,
               "unknown sched policy '" + rest +
                   "' (slack|fifo|wfq|stfq|edf|prio|pifo rank=<<END)");
          return std::nullopt;
        }
      } else if (key == "weight") {
        std::istringstream rs(rest);
        unsigned tenant = 0, weight = 0;
        if (!(rs >> tenant >> weight) || tenant > 0xFFFF) {
          fail(error, lineno, "expected 'weight <tenant> <weight>'");
          return std::nullopt;
        }
        if (weight == 0) {
          fail(error, lineno, "weight must be positive");
          return std::nullopt;
        }
        for (const auto& [t, w] : s.sched_policy.weights) {
          if (t == tenant) {
            fail(error, lineno,
                 "duplicate weight for tenant " + std::to_string(tenant));
            return std::nullopt;
          }
        }
        s.sched_policy.set_weight(static_cast<std::uint16_t>(tenant),
                                  static_cast<std::uint32_t>(weight));
      } else if (key == "drop") {
        if (rest == "arrival") s.drop_policy = engines::DropPolicy::kDropArrival;
        else if (rest == "evict") s.drop_policy = engines::DropPolicy::kEvictLoosest;
        else {
          fail(error, lineno, "unknown drop policy '" + rest + "'");
          return std::nullopt;
        }
      } else if (key == "queue_capacity") {
        s.engine_queue_capacity = std::stoull(rest);
      } else if (key == "rmt_input_queue") {
        s.rmt_input_queue = std::stoull(rest);
      } else if (key == "rmt_cache") {
        if (rest == "off") {
          s.rmt_cache_enabled = false;
        } else if (rest == "on") {
          s.rmt_cache_enabled = true;
        } else {
          std::istringstream rs(rest);
          std::string tok;
          bool saw_any = false;
          while (rs >> tok) {
            std::string k, v;
            if (!split_kv(tok, &k, &v)) {
              fail(error, lineno,
                   "expected 'rmt_cache off' or 'rmt_cache sets=<n> "
                   "ways=<n>'");
              return std::nullopt;
            }
            if (k == "sets") {
              s.rmt_cache_sets = static_cast<std::uint32_t>(std::stoul(v));
            } else if (k == "ways") {
              s.rmt_cache_ways = static_cast<std::uint32_t>(std::stoul(v));
            } else {
              fail(error, lineno, "unknown rmt_cache key '" + k + "'");
              return std::nullopt;
            }
            saw_any = true;
          }
          if (!saw_any) {
            fail(error, lineno,
                 "expected 'rmt_cache off' or 'rmt_cache sets=<n> ways=<n>'");
            return std::nullopt;
          }
          s.rmt_cache_enabled = true;
        }
      } else if (key == "aux_fixed_cycles") {
        s.aux_fixed_cycles = std::stoull(rest);
      } else if (key == "dma_base_latency") {
        s.dma_base_latency = std::stoull(rest);
      } else if (key == "dma_bytes_per_cycle") {
        s.dma_bytes_per_cycle = std::stod(rest);
      } else if (key == "dma_contention") {
        s.dma_contention_mean = std::stod(rest);
      } else if (key == "pool_reserve") {
        s.pool_reserve = std::stoull(rest);
      } else if (key == "default_slack") {
        s.default_slack = static_cast<std::uint32_t>(std::stoul(rest));
      } else if (key == "warmup") {
        s.warmup_cycles = std::stoull(rest);
      } else if (key == "budget") {
        s.budget_cycles = std::stoull(rest);
      } else if (key == "mode") {
        const auto mode = sim_mode_from_string(rest);
        if (!mode) {
          fail(error, lineno, "unknown mode '" + rest + "' (dense|event)");
          return std::nullopt;
        }
        s.mode = *mode;
      } else if (key == "slack") {
        std::istringstream rs(rest);
        unsigned tenant = 0, slack = 0;
        if (!(rs >> tenant >> slack)) {
          fail(error, lineno, "expected 'slack <tenant> <value>'");
          return std::nullopt;
        }
        s.tenant_slacks.emplace_back(static_cast<std::uint16_t>(tenant),
                                     static_cast<std::uint32_t>(slack));
      } else if (key == "workload") {
        WorkloadSpec spec;
        std::string reason;
        if (!parse_workload_line(rest, &spec, &reason)) {
          fail(error, lineno, reason);
          return std::nullopt;
        }
        s.workloads.push_back(spec);
      } else if (key == "inject") {
        InjectSpec spec;
        std::string reason;
        if (!parse_inject_line(rest, &spec, &reason)) {
          fail(error, lineno, reason);
          return std::nullopt;
        }
        s.injects.push_back(spec);
      } else if (key == "host_tx") {
        HostTxSpec spec;
        std::string reason;
        if (!parse_host_tx_line(rest, &spec, &reason)) {
          fail(error, lineno, reason);
          return std::nullopt;
        }
        s.host_txs.push_back(spec);
      } else if (key == "on_no_route") {
        if (rest == "drop") s.on_no_route = fault::NoRoutePolicy::kDrop;
        else if (rest == "backpressure") {
          s.on_no_route = fault::NoRoutePolicy::kBackpressure;
        } else {
          fail(error, lineno,
               "unknown on_no_route '" + rest + "' (drop|backpressure)");
          return std::nullopt;
        }
      } else if (key == "no_route_depth") {
        s.no_route_depth = std::stoull(rest);
      } else if (key == "fault_seed") {
        fault_seed = std::stoull(rest);
      } else if (key == "fault") {
        fault_lines.push_back(rest);
      } else if (key == "program") {
        if (rest != "<<END") {
          fail(error, lineno, "expected 'program <<END'");
          return std::nullopt;
        }
        // Heredoc: raw lines (comments and blanks preserved) up to a line
        // that is exactly END.
        std::string body;
        bool closed = false;
        while (std::getline(in, line)) {
          ++lineno;
          std::string trimmed = line;
          if (!trimmed.empty() && trimmed.back() == '\r') trimmed.pop_back();
          if (trimmed == "END") {
            closed = true;
            break;
          }
          body += trimmed;
          body += '\n';
        }
        if (!closed) {
          fail(error, lineno, "program block missing END terminator");
          return std::nullopt;
        }
        s.program = body;
      } else if (key == "end") {
        saw_end = true;
        break;
      } else {
        fail(error, lineno, "unknown key '" + key + "'");
        return std::nullopt;
      }
    } catch (const std::exception&) {
      fail(error, lineno, "bad value for '" + key + "': '" + rest + "'");
      return std::nullopt;
    }
  }
  if (!saw_header) {
    fail(error, lineno, "missing 'panic_scenario 1' header");
    return std::nullopt;
  }
  if (!saw_end) {
    fail(error, lineno, "missing 'end' terminator");
    return std::nullopt;
  }
  if (!fault_lines.empty()) {
    std::string plan_text = "seed " + std::to_string(fault_seed) + "\n";
    for (const std::string& fl : fault_lines) plan_text += fl + "\n";
    std::string plan_error;
    auto plan = fault::FaultPlan::parse(plan_text, &plan_error);
    if (!plan.has_value()) {
      if (error != nullptr) *error = "fault plan: " + plan_error;
      return std::nullopt;
    }
    s.faults = std::move(*plan);
  } else {
    s.faults.seed = fault_seed;
  }
  return s;
}

bool Scenario::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    PANIC_WARN("scenario", "cannot open %s for scenario", path.c_str());
    return false;
  }
  out << to_string();
  return static_cast<bool>(out);
}

std::optional<Scenario> Scenario::load(const std::string& path,
                                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), error);
}

}  // namespace panic::scenario
