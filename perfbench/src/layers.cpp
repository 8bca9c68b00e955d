#include "layers.h"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>

#include "common/rng.h"
#include "engines/chacha20.h"
#include "engines/ipsec_engine.h"
#include "engines/lz77.h"
#include "engines/sched_queue.h"
#include "net/message.h"
#include "net/packet.h"
#include "noc/flit.h"
#include "noc/mesh.h"
#include "sim/simulator.h"
#include "workload/kvs_workload.h"

namespace perfbench {

namespace {

using namespace panic;
using scenario::WorkloadSpec;

// Work per drive, sized so that each takes a few hundred milliseconds on
// a 4x4 mesh.  Fixed counts keep the exact work identical across runs.
constexpr std::size_t kMixFrames = 1024;
constexpr std::size_t kWorkloadFrames = 200000;
constexpr std::size_t kRmtPasses = 200000;
constexpr std::size_t kSchedIterations = 400000;
constexpr std::size_t kIpsecBytes = 16u << 20;
constexpr std::size_t kCompressionBytes = 4u << 20;
constexpr Cycles kNocCycles = 100000;

Ipv4Addr addr_or(const std::string& text, Ipv4Addr fallback) {
  if (text.empty()) return fallback;
  return Ipv4Addr::parse(text).value_or(fallback);
}

/// One workload line's frame generator, built from the same public
/// workload factories and fillers, and seeded the same way, as the
/// scenario runner's TrafficSource.
struct Source {
  workload::FrameFactory factory;
  workload::FrameFiller filler;
  Rng rng;
  std::uint64_t seq = 0;
  std::uint16_t tenant = 0;
  int port = 0;

  void next(std::vector<std::uint8_t>& out) {
    if (filler) {
      filler(rng, seq, out);
    } else {
      out = factory(rng, seq);
    }
    ++seq;
  }
};

Source make_source(const WorkloadSpec& w) {
  const Ipv4Addr client = addr_or(
      w.src, Ipv4Addr(10, static_cast<std::uint8_t>(w.tenant), 0, 2));
  const Ipv4Addr server = addr_or(w.dst, Ipv4Addr(10, 0, 0, 1));
  Source s{nullptr, nullptr, Rng(derive_seed(w.seed)), 0, w.tenant, w.port};
  switch (w.kind) {
    case WorkloadSpec::Kind::kUdp:
      s.factory = workload::make_udp_factory(client, server, w.frame_bytes,
                                             w.dst_port, w.flows);
      break;
    case WorkloadSpec::Kind::kMinFrame:
      s.factory = workload::make_min_frame_factory(client, server, w.flows);
      break;
    case WorkloadSpec::Kind::kKvs: {
      workload::KvsWorkloadConfig kvs;
      kvs.client = client;
      kvs.server = server;
      kvs.tenant = w.tenant;
      kvs.wan_fraction = w.wan_fraction;
      s.factory = workload::make_kvs_factory(kvs);
      break;
    }
    case WorkloadSpec::Kind::kEsp: {
      const std::uint16_t sport = w.src_port;
      const std::uint16_t dport = w.dst_port;
      const std::uint32_t spi = w.spi;
      s.factory = [client, server, sport, dport, spi](Rng&,
                                                      std::uint64_t seq) {
        return engines::IpsecEngine::encapsulate(
            frames::min_udp(client, server, sport, dport), spi,
            static_cast<std::uint32_t>(seq + 1));
      };
      break;
    }
    case WorkloadSpec::Kind::kUdpFill:
      s.filler = workload::make_udp_filler(client, server, w.frame_bytes,
                                           w.dst_port, w.flows);
      break;
    case WorkloadSpec::Kind::kMinFill:
      s.filler = workload::make_min_frame_filler(client, server, w.flows);
      break;
  }
  return s;
}

/// Long-run frames per cycle of one workload line.
double frame_rate(const WorkloadSpec& w) {
  double rate = 1.0 / w.mean_gap_cycles;
  if (w.pattern == workload::ArrivalPattern::kOnOff) {
    rate *= static_cast<double>(w.on_cycles) /
            static_cast<double>(w.on_cycles + w.off_cycles);
  }
  return rate;
}

struct MixFrame {
  std::vector<std::uint8_t> bytes;
  std::uint16_t tenant = 0;
  int port = 0;
};

/// The workload's generators, interleaved in proportion to their rates.
class Mix {
 public:
  explicit Mix(const scenario::Scenario& s)
      : rng_(s.workloads.empty() ? 1 : s.workloads[0].seed) {
    std::vector<double> rates;
    for (const WorkloadSpec& w : s.workloads) {
      sources_.push_back(make_source(w));
      rates.push_back(frame_rate(w));
    }
    choice_ = std::make_unique<WeightedChoice>(std::move(rates));
  }

  Source& pick() { return sources_[(*choice_)(rng_)]; }

 private:
  std::vector<Source> sources_;
  Rng rng_;
  std::unique_ptr<WeightedChoice> choice_;
};

double drive_workload(const scenario::Scenario& s,
                      std::vector<MixFrame>& sample, SpanRecorder& rec,
                      int run) {
  Mix mix(s);
  for (std::size_t i = 0; i < kMixFrames; ++i) {
    Source& src = mix.pick();
    MixFrame f;
    src.next(f.bytes);
    f.tenant = src.tenant;
    f.port = src.port;
    sample.push_back(std::move(f));
  }
  std::vector<std::uint8_t> out;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(&rec, "workload.drive", run);
    for (std::size_t i = 0; i < kWorkloadFrames; ++i) mix.pick().next(out);
  }
  return ns_between(t0, Clock::now()) / static_cast<double>(kWorkloadFrames);
}

double drive_rmt(core::PanicNic& nic, const std::vector<MixFrame>& sample,
                 SpanRecorder& rec, int run) {
  std::vector<MessagePtr> msgs;
  for (const MixFrame& f : sample) {
    MessagePtr m = make_message(MessageKind::kPacket);
    m->data = f.bytes;
    m->tenant = TenantId{f.tenant};
    m->ingress_port = nic.eth_port(f.port).id();
    msgs.push_back(std::move(m));
  }
  const int engines = nic.num_rmt_engines();
  const auto t0 = Clock::now();
  {
    ScopedSpan span(&rec, "rmt.drive", run);
    for (std::size_t i = 0; i < kRmtPasses; ++i) {
      const std::size_t j = i % msgs.size();
      Message& m = *msgs[j];
      m.chain.clear();
      m.meta_valid = false;
      const int engine = sample[j].port % engines;
      nic.rmt(engine).pipeline().process(m);
    }
  }
  const double ns = ns_between(t0, Clock::now());
  for (MessagePtr& m : msgs) m->set_fate(MessageFate::kConsumed);
  return ns / static_cast<double>(kRmtPasses);
}

double drive_sched(const scenario::Scenario& s,
                   const std::vector<MixFrame>& sample, SpanRecorder& rec,
                   int run) {
  engines::SchedulerQueue q(s.sched_policy, s.engine_queue_capacity,
                            s.drop_policy);
  auto slack_for = [&s](std::uint16_t tenant) {
    for (const auto& [t, slack] : s.tenant_slacks) {
      if (t == tenant) return slack;
    }
    return s.default_slack;
  };
  Cycle now = 0;
  const std::size_t depth = std::max<std::size_t>(1, q.capacity() / 2);
  for (std::size_t i = 0; i < depth; ++i) {
    const MixFrame& f = sample[i % sample.size()];
    MessagePtr m = make_message(MessageKind::kPacket);
    m->data = f.bytes;
    m->tenant = TenantId{f.tenant};
    m->slack = slack_for(f.tenant);
    q.try_enqueue(std::move(m), now);
  }
  const auto t0 = Clock::now();
  {
    ScopedSpan span(&rec, "engines.sched.drive", run);
    for (std::size_t i = 0; i < kSchedIterations; ++i) {
      ++now;
      MessagePtr m = q.dequeue(now);
      q.try_enqueue(std::move(m), now);
    }
  }
  const double ns = ns_between(t0, Clock::now());
  for (MessagePtr& m : q.evict_all()) m->set_fate(MessageFate::kConsumed);
  return ns / static_cast<double>(2 * kSchedIterations);
}

double drive_ipsec(std::vector<MixFrame> sample, SpanRecorder& rec, int run) {
  const auto key = engines::IpsecEngine::key_for_spi(0x2001);
  const std::array<std::uint8_t, engines::ChaCha20::kNonceBytes> nonce{};
  engines::ChaCha20 cipher(key, nonce);
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(&rec, "engines.ipsec.drive", run);
    for (std::size_t i = 0; bytes < kIpsecBytes; ++i) {
      auto& frame = sample[i % sample.size()].bytes;
      cipher.apply_inplace(frame);
      bytes += frame.size();
    }
  }
  return ns_between(t0, Clock::now()) / static_cast<double>(bytes);
}

double drive_compression(const std::vector<MixFrame>& sample,
                         SpanRecorder& rec, int run) {
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(&rec, "engines.compression.drive", run);
    for (std::size_t i = 0; bytes < kCompressionBytes; ++i) {
      const auto& frame = sample[i % sample.size()].bytes;
      engines::lz77_compress(frame);
      bytes += frame.size();
    }
  }
  return ns_between(t0, Clock::now()) / static_cast<double>(bytes);
}

/// Drives a bare mesh of the NIC's geometry with the workload's traffic
/// matrix: each tile injects at the message rate and mean size its NI
/// showed in the full run, to destinations weighted by what each NI
/// received.
EngineId tile(int t) { return EngineId{static_cast<std::uint16_t>(t)}; }

double drive_noc(const scenario::Scenario& s, core::PanicNic& nic,
                 const telemetry::MetricsSnapshot& snap, Cycle cycles,
                 SpanRecorder& rec, int run) {
  const noc::MeshConfig cfg = nic.mesh().config();
  Simulator sim(Frequency::megahertz(s.freq_mhz), SimMode::kEventDriven);
  noc::Mesh mesh(cfg, sim);
  const int tiles = mesh.tiles();
  std::vector<double> rate(tiles, 0.0);
  std::vector<std::size_t> bytes(tiles, 0);
  std::vector<double> recv(tiles, 0.0);
  std::vector<int> dests;
  for (int t = 0; t < tiles; ++t) {
    const std::string p = "noc.ni." + std::to_string(t) + ".";
    const double sent = snap.value(p + "messages_sent");
    recv[t] = snap.value(p + "messages_received");
    if (recv[t] > 0) dests.push_back(t);
    if (sent <= 0 || cycles == 0) continue;
    rate[t] = sent / static_cast<double>(cycles);
    const double flits = snap.value(p + "flits_sent") / sent;
    const double payload_bits =
        flits * cfg.channel_bits - static_cast<double>(noc::kNocHeaderBits);
    bytes[t] = static_cast<std::size_t>(std::max(8.0, payload_bits / 8.0));
  }
  if (dests.empty()) return 0.0;
  std::vector<double> weights;
  for (int d : dests) weights.push_back(recv[d]);
  const WeightedChoice pick_dest(std::move(weights));
  Rng rng(7);
  std::vector<double> credit(tiles, 0.0);

  const auto t0 = Clock::now();
  {
    ScopedSpan span(&rec, "noc.drive", run);
    for (Cycle c = 0; c < kNocCycles; ++c) {
      const Cycle now = sim.now();
      for (int t = 0; t < tiles; ++t) {
        if (rate[t] == 0.0) continue;
        credit[t] = std::min(credit[t] + rate[t], 4.0);
        noc::NetworkInterface& ni = mesh.ni(tile(t));
        while (credit[t] >= 1.0 && ni.can_inject()) {
          const int dst = dests[pick_dest(rng)];
          credit[t] -= 1.0;
          if (dst == t) continue;
          MessagePtr m = make_message(MessageKind::kPacket);
          m->data.resize(bytes[t]);
          ni.inject(std::move(m), tile(dst), now);
        }
      }
      sim.step();
      for (int d : dests) {
        while (MessagePtr m = mesh.ni(tile(d)).try_receive(sim.now())) {
          m->set_fate(MessageFate::kConsumed);
        }
      }
    }
  }
  const double ns = ns_between(t0, Clock::now());
  const std::uint64_t flits = mesh.total_flits_routed();
  return flits == 0 ? 0.0 : ns / static_cast<double>(flits);
}

}  // namespace

LayerCosts drive_layers(const scenario::Scenario& scenario,
                        core::PanicNic& nic,
                        const telemetry::MetricsSnapshot& snap, Cycle cycles,
                        SpanRecorder& rec, int run) {
  LayerCosts c;
  std::vector<MixFrame> sample;
  c.workload_ns_per_frame = drive_workload(scenario, sample, rec, run);
  c.rmt_ns_per_pass = drive_rmt(nic, sample, rec, run);
  c.sched_ns_per_op = drive_sched(scenario, sample, rec, run);
  c.ipsec_ns_per_byte = drive_ipsec(sample, rec, run);
  c.compression_ns_per_byte = drive_compression(sample, rec, run);
  c.noc_ns_per_flit = drive_noc(scenario, nic, snap, cycles, rec, run);
  return c;
}

}  // namespace perfbench
