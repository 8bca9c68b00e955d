// E3 — per-packet coordination latency (§2.3.2): the manycore baseline
// pays an embedded-CPU orchestration overhead (~10 µs per Firestone et
// al.); the RMT-only baseline punts heavy work to host software; PANIC's
// logical switch chains engines directly.  We measure unloaded
// single-packet host-delivery latency for (a) plain packets and (b)
// IPSec-encrypted packets on all four architectures: each packet enters
// the NIC's RxPort only after the previous one reached the host.
#include <cstdio>
#include <functional>
#include <memory>

#include "analysis/report.h"
#include "baselines/manycore_nic.h"
#include "baselines/pipeline_nic.h"
#include "baselines/rmt_nic.h"
#include "common/cli.h"
#include "core/panic_nic.h"
#include "engines/ipsec_engine.h"
#include "net/packet.h"

using namespace panic;
using namespace panic::analysis;

namespace {

const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);
const Frequency kClock = Frequency::megahertz(500);

/// One architecture under test.
struct Architecture {
  const char* label;
  const char* delivered;  ///< delivered-packet counter, polled per packet
  const char* latency;    ///< host-latency histogram whose mean is reported
  /// Builds the NIC in `sim`; the handle keeps it alive and points at its
  /// RX port.
  std::function<std::shared_ptr<RxPort>(Simulator&)> build;
};

/// Unloaded latency: delivers `n` copies of `frame` one at a time into a
/// fresh `arch` NIC and returns the mean of its latency histogram.
double measure(const Architecture& arch,
               const std::vector<std::uint8_t>& frame, int n, SimMode mode) {
  Simulator sim(kClock, mode);
  const std::shared_ptr<RxPort> port = arch.build(sim);
  const auto& count = sim.telemetry().metrics().counter(arch.delivered);
  for (int i = 0; i < n; ++i) {
    const auto before = count;
    deliver_frame(*port, frame, sim.now());
    sim.run_until([&] { return count > before; }, 1000000);
  }
  return sim.snapshot().at(arch.latency).mean;
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args("bench_orchestration_latency", "chain orchestration latency breakdown");
  args.parse(argc, argv);
  std::printf(
      "PANIC reproduction — E3: coordination latency per architecture\n");
  std::printf("(unloaded; mean of 20 packets; 1 cycle = 2 ns @ 500 MHz)\n");

  Report report({"Architecture", "plain pkt (us)", "IPSec pkt (us)",
                 "plain (cycles)", "IPSec (cycles)"});
  const int n = 20;
  const auto specs = std::vector<baselines::OffloadSpec>{
      baselines::ipsec_offload_spec()};
  const Architecture architectures[] = {
      {"PANIC", "engine.dma.packets_to_host", "engine.dma.host_latency",
       [](Simulator& sim) {
         core::PanicConfig cfg;
         cfg.mesh.k = 4;
         auto nic = std::make_shared<core::PanicNic>(cfg, sim);
         return std::shared_ptr<RxPort>(nic, &nic->eth_port(0));
       }},
      {"pipeline (bump-in-wire)", "baseline.pipe.delivered",
       "baseline.pipe.host_latency",
       [&](Simulator& sim) {
         return std::make_shared<baselines::PipelineNic>(
             "pipe", specs, baselines::PipelineNicConfig{}, sim);
       }},
      {"manycore (CPU orchestration)", "baseline.mc.delivered",
       "baseline.mc.host_latency",
       [&](Simulator& sim) {  // 5000-cycle (10 us) orchestration
         return std::make_shared<baselines::ManycoreNic>(
             "mc", specs, baselines::ManycoreNicConfig{}, sim);
       }},
      {"RMT-only (FlexNIC)", "baseline.rmt.delivered",
       "baseline.rmt.host_latency",
       [&](Simulator& sim) {
         return std::make_shared<baselines::RmtNic>(
             "rmt", specs, baselines::RmtNicConfig{}, sim);
       }},
  };
  const auto plain = frames::min_udp(kClient, kServer);
  const auto encrypted = engines::IpsecEngine::encapsulate(plain, 0x1001, 1);
  for (const Architecture& arch : architectures) {
    const double lat_plain = measure(arch, plain, n, args.sim_mode());
    const double lat_esp = measure(arch, encrypted, n, args.sim_mode());
    report.add_row({arch.label, strf("%.2f", lat_plain * 0.002),
                    strf("%.2f", lat_esp * 0.002), strf("%.0f", lat_plain),
                    strf("%.0f", lat_esp)});
  }

  report.print("Unloaded host-delivery latency");

  std::printf(
      "\nShape check (paper, Sec 2.3): the manycore design adds ~10us per\n"
      "packet; the RMT-only design matches PANIC on plain traffic but\n"
      "pays host software costs (~20us) for IPSec it cannot offload;\n"
      "PANIC stays in the sub-microsecond range for plain traffic and\n"
      "adds only the crypto engine's service time for IPSec.\n");
  return 0;
}
