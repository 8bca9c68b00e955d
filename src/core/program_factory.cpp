#include "core/program_factory.h"

#include <stdexcept>
#include <string>

#include "rmt/p4lite.h"

namespace panic::core {

namespace {

/// The default program.  Wildcard key words read `0/0`; meta.msg_kind 0 is
/// MessageKind::kPacket, and kvs.op 1, 2 and 3 are KvsOp::kGet, kSet and
/// kGetReply.
std::string default_program(const PanicConfig& config) {
  std::string tenants;
  for (const auto& [tenant, slack] : config.tenant_slacks) {
    tenants += "    " + std::to_string(tenant) + " -> set_slack(" +
               std::to_string(slack) + ");\n";
  }
  return R"(parser default;

// Per-tenant slack.  The metadata tenant stamped at ingress runs first,
// with the default; a KVS header naming a tenant overrides it.
stage slack {
  table slack_by_meta_tenant exact(meta.tenant) {
)" + tenants + "    default -> set_slack(" +
         std::to_string(config.default_slack) + R"();
  }
  table slack_by_kvs_tenant exact(kvs.tenant) {
)" + tenants + R"(  }
}

// WAN classification by destination prefix: only packets sent over the
// WAN need to be encrypted (§2.2).
stage wan {
  table wan_by_dst lpm(ipv4.dst) {
    203.0.113.0/24 -> set(meta.from_wan, 1);
  }
}

// Chain construction, highest priority first.
stage classify {
  table classify ternary(valid_esp, valid_kvs, kvs.op, meta.msg_kind,
                         meta.from_wan, meta.from_host) {
    // ESP packet from the wire -> decrypt; the IPSec engine's default
    // route returns the clear packet here for its second pass (§3.1.2).
    (1, 0/0, 0/0, 0, 0/0, 0) prio 100 -> chain(ipsec_rx);
    // KVS GET -> cache engine (which locally reroutes hits to RDMA and
    // misses to the host).
    (0, 1, 1, 0, 0/0, 0) prio 90 -> chain(kvs);
    // KVS SET -> cache engine, then host log via DMA.
    (0, 1, 2, 0, 0/0, 0) prio 89 -> chain(kvs, dma);
    // Host TX packets (from the descriptor path): checksum offload,
    // WAN encryption, then out the descriptor's egress port.
    (0/0, 0/0, 0/0, 0, 1, 1) prio 86 ->
        chain(checksum, ipsec_tx), chain_from(meta.egress_port);
    (0/0, 0/0, 0/0, 0, 0/0, 1) prio 85 ->
        chain(checksum), chain_from(meta.egress_port);
    // NIC-generated KVS replies: the same, out the recorded egress port.
    (0/0, 1, 3, 0, 1, 0/0) prio 80 ->
        chain(checksum, ipsec_tx), chain_from(meta.egress_port);
    (0/0, 1, 3, 0, 0/0, 0/0) prio 79 ->
        chain(checksum), chain_from(meta.egress_port);
    // Any other packet: pick one of 8 receive queues, deliver via DMA.
    (0/0, 0/0, 0/0, 0, 0/0, 0/0) prio 10 ->
        lb(meta.queue, ipv4.src, l4.sport, 8), chain(dma);
  }
}

// TCP segmentation offload for host TX: jumbo TCP frames from the driver
// detour through the TSO engine before checksum and egress.
stage tso {
  table tso_select ternary(meta.from_host, valid_tcp, meta.from_wan) {
    (1, 1, 1) prio 10 -> clear_chain, chain(tso, checksum, ipsec_tx),
                         chain_from(meta.egress_port);
    (1, 1, 0) prio 5 -> clear_chain, chain(tso, checksum),
                        chain_from(meta.egress_port);
  }
}
)";
}

}  // namespace

std::shared_ptr<const rmt::RmtProgram> build_default_program(
    const PanicConfig& config, const PanicTopology& topo) {
  auto program = std::make_shared<rmt::RmtProgram>();
  program->tiles = static_cast<std::uint64_t>(config.mesh.k) * config.mesh.k;
  const rmt::SymbolTable names = topo.tile_names();
  std::string error;
  if (!rmt::append_p4lite_stages(*program, default_program(config), names,
                                 &error) ||
      !rmt::append_p4lite_stages(*program, config.program, names, &error)) {
    throw std::runtime_error("scenario program: " + error);
  }
  return program;
}

}  // namespace panic::core
