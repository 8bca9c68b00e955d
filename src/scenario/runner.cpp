#include "scenario/runner.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/json.h"
#include "engines/ipsec_engine.h"
#include "net/message_pool.h"
#include "net/packet.h"
#include "workload/kvs_workload.h"

namespace panic::scenario {

namespace {

Ipv4Addr addr_or(const std::string& text, Ipv4Addr fallback) {
  if (text.empty()) return fallback;
  const auto parsed = Ipv4Addr::parse(text);
  return parsed.value_or(fallback);  // parse() validated the grammar already
}

workload::FrameFactory make_factory(const WorkloadSpec& w) {
  const Ipv4Addr client = addr_or(
      w.src, Ipv4Addr(10, static_cast<std::uint8_t>(w.tenant), 0, 2));
  const Ipv4Addr server = addr_or(w.dst, Ipv4Addr(10, 0, 0, 1));
  switch (w.kind) {
    case WorkloadSpec::Kind::kUdp:
      return workload::make_udp_factory(client, server, w.frame_bytes,
                                        w.dst_port, w.flows);
    case WorkloadSpec::Kind::kMinFrame:
      return workload::make_min_frame_factory(client, server, w.flows);
    case WorkloadSpec::Kind::kKvs: {
      workload::KvsWorkloadConfig kvs;
      kvs.client = client;
      kvs.server = server;
      kvs.tenant = w.tenant;
      kvs.wan_fraction = w.wan_fraction;
      return workload::make_kvs_factory(kvs);
    }
    case WorkloadSpec::Kind::kEsp: {
      // ESP sequence numbers start at 1 (frame seq is 0-based).
      const std::uint16_t sport = w.src_port;
      const std::uint16_t dport = w.dst_port;
      const std::uint32_t spi = w.spi;
      return [client, server, sport, dport, spi](Rng&, std::uint64_t seq) {
        const auto inner = frames::min_udp(client, server, sport, dport);
        return engines::IpsecEngine::encapsulate(
            inner, spi, static_cast<std::uint32_t>(seq + 1));
      };
    }
    case WorkloadSpec::Kind::kUdpFill:
    case WorkloadSpec::Kind::kMinFill:
      return nullptr;  // filler kinds handled by make_filler
  }
  return nullptr;
}

workload::FrameFiller make_filler(const WorkloadSpec& w) {
  const Ipv4Addr client = addr_or(
      w.src, Ipv4Addr(10, static_cast<std::uint8_t>(w.tenant), 0, 2));
  const Ipv4Addr server = addr_or(w.dst, Ipv4Addr(10, 0, 0, 1));
  switch (w.kind) {
    case WorkloadSpec::Kind::kUdpFill:
      return workload::make_udp_filler(client, server, w.frame_bytes,
                                       w.dst_port, w.flows);
    case WorkloadSpec::Kind::kMinFill:
      return workload::make_min_frame_filler(client, server, w.flows);
    default:
      return nullptr;
  }
}

std::vector<std::uint8_t> build_inject_frame(const InjectSpec& i) {
  const Ipv4Addr src = addr_or(i.src, Ipv4Addr(10, 1, 0, 2));
  const Ipv4Addr dst = addr_or(i.dst, Ipv4Addr(10, 0, 0, 1));
  switch (i.kind) {
    case InjectSpec::Kind::kUdp:
      return frames::min_udp(src, dst, i.src_port, i.dst_port);
    case InjectSpec::Kind::kKvsGet:
      return frames::kvs_get(src, dst, i.tenant, i.key, i.request_id);
    case InjectSpec::Kind::kKvsSet:
      return frames::kvs_set(src, dst, i.tenant, i.key, i.request_id,
                             i.value_bytes);
    case InjectSpec::Kind::kEsp: {
      auto frame = engines::IpsecEngine::encapsulate(
          frames::min_udp(src, dst, i.src_port, i.dst_port), i.spi, i.seq);
      if (i.tamper) frame[frame.size() - 3] ^= 0xFF;
      return frame;
    }
  }
  return {};
}

std::vector<std::uint8_t> build_host_tx_frame(const HostTxSpec& t) {
  const Ipv4Addr src = addr_or(t.src, Ipv4Addr(10, 0, 0, 1));
  const Ipv4Addr dst = addr_or(t.dst, Ipv4Addr(203, 0, 113, 80));
  return FrameBuilder()
      .eth(*MacAddr::parse("02:00:00:00:00:02"),
           *MacAddr::parse("02:00:00:00:00:01"))
      .ipv4(src, dst)
      .udp(t.src_port, t.dst_port)
      .payload_size(t.payload_bytes)
      .build();
}

/// %.17g round-trips every double exactly, so two cycle-identical runs
/// render byte-identical JSON.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

ScenarioRun::ScenarioRun(const Scenario& s, const RunOptions& opts)
    : scenario_(s),
      opts_(opts),
      sim_(Frequency::megahertz(s.freq_mhz), opts.mode,
           opts.mode == SimMode::kParallelShards ? opts.threads : 0) {
  if (!scenario_.feasible()) {
    throw std::runtime_error("scenario '" + scenario_.name +
                             "' is not feasible (topology/ports/queues)");
  }
  if (!opts_.trace_path.empty()) sim_.telemetry().tracer().enable();
  if (scenario_.pool_reserve > 0) {
    MessagePool::instance().reserve(scenario_.pool_reserve);
  }
  nic_ = std::make_unique<core::PanicNic>(scenario_.to_config(), sim_);
  build_sources();
  schedule_frames();
}

void ScenarioRun::build_sources() {
  sources_.reserve(scenario_.workloads.size());
  for (std::size_t i = 0; i < scenario_.workloads.size(); ++i) {
    const WorkloadSpec& w = scenario_.workloads[i];
    workload::TrafficConfig tc;
    tc.pattern = w.pattern;
    tc.mean_gap_cycles = w.mean_gap_cycles;
    tc.on_cycles = w.on_cycles;
    tc.off_cycles = w.off_cycles;
    tc.max_frames = w.max_frames;
    tc.tenant = TenantId{w.tenant};
    tc.seed = w.seed;
    const std::string name = w.name.empty() ? "w" + std::to_string(i) : w.name;
    if (auto filler = make_filler(w)) {
      sources_.push_back(std::make_unique<workload::TrafficSource>(
          name, &nic_->eth_port(w.port), std::move(filler), tc));
    } else {
      sources_.push_back(std::make_unique<workload::TrafficSource>(
          name, &nic_->eth_port(w.port), make_factory(w), tc));
    }
    sim_.add(sources_.back().get());
  }
}

void ScenarioRun::schedule_frames() {
  // File order is scheduling order; events at the same cycle fire in
  // scheduling order, so a scenario's frame sequence is reproducible.
  for (const InjectSpec& spec : scenario_.injects) {
    sim_.schedule_at(spec.at, [this, spec] {
      nic_->inject_rx(spec.port, build_inject_frame(spec), sim_.now());
    });
  }
  for (const HostTxSpec& spec : scenario_.host_txs) {
    sim_.schedule_at(spec.at, [this, spec] {
      nic_->host_driver().post_tx(build_host_tx_frame(spec), spec.port,
                                  sim_.now());
    });
  }
}

workload::TrafficSource* ScenarioRun::source(std::string_view name) {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const WorkloadSpec& w = scenario_.workloads[i];
    const std::string n = w.name.empty() ? "w" + std::to_string(i) : w.name;
    if (n == name) return sources_[i].get();
  }
  return nullptr;
}

void ScenarioRun::run_warmup() {
  if (scenario_.warmup_cycles != 0 && !warmed_up_) {
    sim_.run(scenario_.warmup_cycles);
  }
  warmed_up_ = true;
}

void ScenarioRun::run_measure() { sim_.run(scenario_.budget_cycles); }

void ScenarioRun::run_all() {
  run_warmup();
  run_measure();
  write_trace();
}

void ScenarioRun::write_trace() {
  if (opts_.trace_path.empty()) return;
  sim_.telemetry().tracer().write_chrome_json(opts_.trace_path, sim_.clock());
}

Outcome ScenarioRun::outcome() const {
  Outcome o;
  o.final_cycle = sim_.now();
  o.events = sim_.events_executed();
  o.ticks = sim_.component_ticks();
  for (const auto& src : sources_) o.generated += src->generated();
  o.snapshot = sim_.snapshot();
  o.delivered = o.snapshot.counter("engine.dma.packets_to_host");
  o.tx_packets =
      static_cast<std::uint64_t>(o.snapshot.sum("engine.eth", ".tx_packets"));
  o.flits_routed =
      static_cast<std::uint64_t>(o.snapshot.value("noc.flits_routed"));
  o.rmt_passes = nic_->total_rmt_passes();
  o.shard_layout = nic_->shard_layout();
  return o;
}

std::string ScenarioRun::result_json() const {
  const Outcome o = outcome();
  std::string j = "{\n";
  j += "  \"scenario\": ";
  append_json_string(j, scenario_.name);
  j += ",\n";
  j += "  \"seed\": ";
  append_u64(j, sim_seed());
  j += ",\n  \"warmup\": ";
  append_u64(j, scenario_.warmup_cycles);
  j += ",\n  \"budget\": ";
  append_u64(j, scenario_.budget_cycles);
  j += ",\n  \"final_cycle\": ";
  append_u64(j, o.final_cycle);
  j += ",\n  \"generated\": ";
  append_u64(j, o.generated);
  j += ",\n  \"delivered\": ";
  append_u64(j, o.delivered);
  j += ",\n  \"tx_packets\": ";
  append_u64(j, o.tx_packets);
  j += ",\n  \"flits_routed\": ";
  append_u64(j, o.flits_routed);
  j += ",\n  \"rmt_passes\": ";
  append_u64(j, o.rmt_passes);
  j += ",\n  \"metrics\": {\n";
  // Every metric except the kernel's own counters (ticks/wakeups/etc.
  // differ between kernels by design; simulation results must not).
  bool first = true;
  for (const telemetry::MetricValue& m : o.snapshot.entries()) {
    if (m.name.rfind("kernel.", 0) == 0) continue;
    if (!first) j += ",\n";
    first = false;
    j += "    ";
    append_json_string(j, m.name);
    j += ": ";
    if (m.kind == telemetry::MetricKind::kHistogram) {
      j += "{\"count\": ";
      append_u64(j, m.count);
      j += ", \"mean\": ";
      append_double(j, m.mean);
      j += ", \"min\": ";
      append_u64(j, m.min);
      j += ", \"max\": ";
      append_u64(j, m.max);
      j += ", \"p50\": ";
      append_u64(j, m.p50);
      j += ", \"p90\": ";
      append_u64(j, m.p90);
      j += ", \"p99\": ";
      append_u64(j, m.p99);
      j += ", \"p999\": ";
      append_u64(j, m.p999);
      j += "}";
    } else {
      append_double(j, m.value);
    }
  }
  // The one kernel-dependent line, kept on a single physical line so the
  // CI equivalence gate can `grep -v '"runner"'` before diffing.
  j += "\n  },\n";
  j += "  \"runner\": {\"mode\": ";
  append_json_string(j, to_string(sim_.mode()));
  j += ", \"threads\": " + std::to_string(sim_.num_shards()) +
       ", \"shard_layout\": ";
  append_json_string(j, o.shard_layout);
  j += "}\n";
  j += "}\n";
  return j;
}

bool ScenarioRun::write_result_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << result_json();
  return static_cast<bool>(out);
}

}  // namespace panic::scenario
