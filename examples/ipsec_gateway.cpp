// An IPSec gateway on the NIC: encrypted traffic arrives from the WAN, is
// decrypted by the IPSec engine, re-enters the RMT pipeline for its second
// pass (§3.1.2 — the chain of an encrypted packet cannot be known up
// front), and is steered like clear traffic.  Meanwhile clear LAN traffic
// flows past the crypto engine untouched — no head-of-line blocking.
//
// The whole plot — WAN ESP stream, clear LAN stream, five host TX frames
// encrypted on egress, one tampered ESP frame dropped by the
// authenticator — lives in ipsec_gateway.scenario; this wrapper adds the
// pcap recording and the narrated statistics.
#include <cstdio>

#include "common/cli.h"
#include "net/pcap_writer.h"
#include "scenario/runner.h"

using namespace panic;

int main(int argc, char** argv) {
  cli::ArgParser args("ipsec_gateway",
                      "ESP decrypt/encrypt gateway with clear LAN bypass");
  args.parse(argc, argv);

  std::string error;
  auto s = scenario::Scenario::load(
      PANIC_SCENARIO_DIR "/ipsec_gateway.scenario", &error);
  if (!s.has_value()) {
    std::fprintf(stderr, "cannot load ipsec_gateway.scenario: %s\n",
                 error.c_str());
    return 1;
  }

  scenario::RunOptions opts;
  opts.mode = args.sim_mode();
  scenario::ScenarioRun run(*s, opts);
  Simulator& sim = run.sim();

  // Record transmitted frames for inspection with tcpdump/wireshark.
  PcapWriter pcap("ipsec_gateway_tx.pcap", sim.clock());
  run.nic().eth_port(0).set_tx_sink([&](const Message& msg, Cycle now) {
    pcap.write(msg.data, now);
  });

  run.run_all();

  const auto snap = sim.snapshot();
  const auto rx_busy = snap.counter("engine.ipsec_rx.busy_cycles");
  const auto& lat = snap.at("engine.dma.host_latency");
  std::printf("--- IPSec gateway after %.1f us ---\n", sim.now_ns() / 1e3);
  std::printf("host TX frames encrypted:    %llu of %llu posted\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.ipsec_tx.encrypted")),
              static_cast<unsigned long long>(
                  run.nic().host_driver().frames_posted()));
  std::printf("ESP frames decrypted:        %llu (auth failures: %llu)\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.ipsec_rx.decrypted")),
              static_cast<unsigned long long>(
                  snap.counter("engine.ipsec_rx.auth_failures")));
  std::printf("packets delivered to host:   %llu\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.dma.packets_to_host")));
  std::printf("RMT passes:                  %.0f (= clear x1 + ESP x2)\n",
              snap.value("nic.rmt_passes"));
  std::printf("host-delivery latency:       n=%llu mean=%.1f p50=%llu "
              "p99=%llu cycles\n",
              static_cast<unsigned long long>(lat.count), lat.mean,
              static_cast<unsigned long long>(lat.p50),
              static_cast<unsigned long long>(lat.p99));
  std::printf("IPSec engine busy cycles:    %llu (%.1f%% utilization)\n",
              static_cast<unsigned long long>(rx_busy),
              100.0 * static_cast<double>(rx_busy) /
                  static_cast<double>(sim.now()));
  std::printf("\ntampered ESP frame at cycle 660000: auth failures %llu,"
              " dropped on the NIC, never delivered\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.ipsec_rx.auth_failures")));
  std::printf("wrote %llu TX frames to ipsec_gateway_tx.pcap\n",
              static_cast<unsigned long long>(pcap.frames_written()));
  return 0;
}
