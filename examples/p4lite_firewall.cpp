// Programming the logical switch from text (§4.1): extend the stock PANIC
// program with a P4-lite ACL + DPI policy, compiled at startup.
//
// Policy: drop packets to port 666 at the pipeline; steer traffic to port
// 8080 through the regex/DPI engine before the host; everything else
// follows the default program.
#include <cstdio>

#include "common/cli.h"
#include "core/panic_nic.h"
#include "net/packet.h"

using namespace panic;

int main(int argc, char** argv) {
  panic::cli::ArgParser args("p4lite_firewall", "p4lite-programmed firewall stages");
  args.parse(argc, argv);
  Simulator sim(Frequency::megahertz(500), args.sim_mode());
  core::PanicConfig config;
  config.mesh.k = 4;

  // The NIC compiles the extra stages against the engine names of its
  // topology, after the default program.
  config.program = R"(
    stage acl {
      table deny exact(l4.dport) {
        666 -> clear_chain, drop;
      }
    }
    stage dpi {
      table inspect exact(l4.dport) {
        8080 -> clear_chain, chain(regex, dma);
      }
    }
  )";

  core::PanicNic nic(config, sim);
  nic.regex().add_pattern("(UNION|union) +(SELECT|select)");

  const Ipv4Addr client(10, 1, 0, 2);
  const Ipv4Addr server(10, 0, 0, 1);

  // 1. Blocked port.
  RxPort& wire = nic.eth_port(0);
  deliver_frame(wire, frames::min_udp(client, server, 1234, 666), sim.now());
  // 2. Clean web traffic to the inspected port.
  deliver_frame(wire,
                FrameBuilder()
                    .eth(*MacAddr::parse("02:00:00:00:00:01"),
                         *MacAddr::parse("02:00:00:00:00:02"))
                    .ipv4(client, server)
                    .udp(40000, 8080)
                    .payload_size(100)
                    .build(),
                sim.now());
  // 3. SQL injection to the inspected port.
  const std::string evil = "id=1 UNION  SELECT password FROM users";
  deliver_frame(wire,
                FrameBuilder()
                    .eth(*MacAddr::parse("02:00:00:00:00:01"),
                         *MacAddr::parse("02:00:00:00:00:02"))
                    .ipv4(client, server)
                    .udp(40001, 8080)
                    .payload(std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(evil.data()),
                        evil.size()))
                    .build(),
                sim.now());
  // 4. Ordinary traffic: untouched by the policy.
  deliver_frame(wire, frames::min_udp(client, server, 1234, 80), sim.now());

  sim.run(20000);

  const auto snap = sim.snapshot();
  std::printf("--- P4-lite firewall results ---\n");
  std::printf("dropped at the pipeline (ACL):   %llu\n",
              static_cast<unsigned long long>(
                  snap.counter("rmt.rmt0.dropped") +
                  snap.counter("rmt.rmt1.dropped")));
  std::printf("scanned by the DPI engine:       %llu (matched: %llu)\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.regex.scanned")),
              static_cast<unsigned long long>(
                  snap.counter("engine.regex.matched")));
  std::printf("delivered to host:               %llu of 4 injected\n",
              static_cast<unsigned long long>(
                  snap.counter("engine.dma.packets_to_host")));
  return 0;
}
