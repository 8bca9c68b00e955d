#include "baselines/nic_model.h"

#include <cmath>

#include "engines/checksum_engine.h"
#include "engines/compression_engine.h"
#include "engines/ipsec_engine.h"
#include "net/headers.h"
#include "net/packet.h"

namespace panic::baselines {

void annotate_message(Message& msg) {
  const auto parsed = parse_frame(msg.data);
  MessageMeta meta;
  if (parsed.has_value()) {
    meta.has_ipv4 = parsed->ipv4.has_value();
    meta.has_udp = parsed->udp.has_value();
    meta.has_tcp = parsed->tcp.has_value();
    meta.is_esp = parsed->esp.has_value();
    meta.is_kvs = parsed->kvs.has_value();
    if (parsed->ipv4) meta.ip_proto = parsed->ipv4->protocol;
    if (parsed->udp) meta.udp_dst_port = parsed->udp->dst_port;
    if (parsed->kvs) {
      meta.kvs_op = static_cast<std::uint8_t>(parsed->kvs->op);
      meta.kvs_key = parsed->kvs->key;
      meta.kvs_request_id = parsed->kvs->request_id;
    }
  }
  msg.meta = meta;
  msg.meta_valid = true;
}

OffloadSpec ipsec_offload_spec() {
  const engines::IpsecConfig cost;
  OffloadSpec spec;
  spec.name = "ipsec";
  spec.fixed_cycles = cost.setup_cycles;
  spec.cycles_per_byte = cost.cycles_per_byte;
  spec.applies = [](const Message& msg) { return msg.meta.is_esp; };
  return spec;
}

OffloadSpec compression_offload_spec() {
  const engines::CompressionConfig cost;
  OffloadSpec spec;
  spec.name = "compression";
  spec.fixed_cycles = cost.setup_cycles;
  spec.cycles_per_byte = cost.cycles_per_byte;
  spec.applies = [](const Message& msg) {
    return msg.meta.is_kvs;  // KVS values get compressed
  };
  return spec;
}

OffloadSpec checksum_offload_spec() {
  const engines::ChecksumConfig cost;
  OffloadSpec spec;
  spec.name = "checksum";
  spec.fixed_cycles = cost.setup_cycles;
  spec.cycles_per_byte = cost.cycles_per_byte;
  spec.applies = [](const Message& msg) {
    return msg.meta.has_udp || msg.meta.has_tcp;
  };
  return spec;
}

OffloadSpec slow_offload_spec(Cycles fixed_cycles, std::uint16_t udp_port) {
  OffloadSpec spec;
  spec.name = "slow";
  spec.fixed_cycles = fixed_cycles;
  spec.cycles_per_byte = 0.0;
  spec.applies = [udp_port](const Message& msg) {
    return msg.meta.udp_dst_port == udp_port;
  };
  return spec;
}

Cycles dma_cycles(const engines::DmaConfig& dma, std::size_t bytes) {
  return dma.base_latency +
         static_cast<Cycles>(
             std::ceil(static_cast<double>(bytes) / dma.bytes_per_cycle));
}

void NicModel::deliver_rx(MessagePtr msg, Cycle now, TenantId tenant) {
  msg->kind = MessageKind::kPacket;
  msg->tenant = tenant;
  msg->created_at = now;
  msg->nic_ingress_at = now;
  annotate_message(*msg);
  admit(std::move(msg), now);
}

void NicModel::drop(MessagePtr msg) {
  msg->set_fate(MessageFate::kDropped);
  ++dropped_;
}

void NicModel::deliver(MessagePtr msg, Cycle now) {
  ++delivered_;
  if (now >= msg->nic_ingress_at) latency_.record(now - msg->nic_ingress_at);
  msg->set_fate(MessageFate::kDelivered);
}

void NicModel::expose_metrics(
    telemetry::MetricsRegistry& m, const std::string& nic,
    std::initializer_list<std::pair<const char*, std::uint64_t*>> extra) {
  const std::string prefix = "baseline." + nic + ".";
  m.expose_counter(prefix + "delivered", &delivered_);
  m.expose_counter(prefix + "dropped", &dropped_);
  for (const auto& [suffix, cell] : extra) {
    m.expose_counter(prefix + suffix, cell);
  }
  m.expose_histogram(prefix + "host_latency", &latency_);
}

}  // namespace panic::baselines
