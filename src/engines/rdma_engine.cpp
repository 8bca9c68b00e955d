#include "engines/rdma_engine.h"

#include "net/packet.h"
#include "telemetry/telemetry.h"

namespace panic::engines {

RdmaEngine::RdmaEngine(std::string name, noc::NetworkInterface* ni,
                       const EngineConfig& config, const RdmaConfig& rdma)
    : Engine(std::move(name), ni, config), rdma_(rdma) {}

Cycles RdmaEngine::service_time(const Message& msg) const {
  return msg.kind == MessageKind::kDmaCompletion ? rdma_.response_cycles
                                                 : rdma_.request_cycles;
}

bool RdmaEngine::process(Message& msg, Cycle now) {
  if (msg.kind == MessageKind::kPacket && msg.meta_valid && msg.meta.is_kvs &&
      msg.dma_bytes > 0) {
    // A location-cache hit: issue the DMA read for the value.
    if (pending_.size() >= rdma_.max_outstanding) {
      ++overflow_;
      return false;  // drop under overload; client retries
    }
    const auto parsed = parse_frame(msg.data);
    if (!parsed.has_value() || !parsed->kvs.has_value() ||
        !parsed->ipv4.has_value()) {
      return false;
    }
    PendingOp op;
    op.tenant = parsed->kvs->tenant;
    op.key = parsed->kvs->key;
    op.request_id = parsed->kvs->request_id;
    op.src_ip = parsed->ipv4->src.value();
    op.dst_ip = parsed->ipv4->dst.value();
    op.slack = msg.slack;
    op.created_at = msg.created_at;
    op.nic_ingress_at = msg.nic_ingress_at;
    op.ingress_port = msg.ingress_port;
    pending_[op_key(msg.tenant, op.request_id)] = op;

    auto read = make_message(MessageKind::kDmaRead);
    read->dma_addr = msg.dma_addr;
    read->dma_bytes = msg.dma_bytes;
    read->reply_to = id();
    read->tenant = msg.tenant;
    read->slack = msg.slack;
    read->created_at = msg.created_at;
    read->nic_ingress_at = msg.nic_ingress_at;
    read->ingress_port = msg.ingress_port;
    read->meta = msg.meta;  // carries kvs_request_id for the completion
    read->meta_valid = true;
    ++issued_;
    emit(std::move(read), rdma_.dma_engine, now);
    return false;
  }

  if (msg.kind == MessageKind::kDmaCompletion && msg.meta_valid &&
      msg.meta.is_kvs) {
    const auto it =
        pending_.find(op_key(msg.tenant, msg.meta.kvs_request_id));
    if (it == pending_.end()) return false;  // stale/duplicate completion
    const PendingOp op = it->second;
    pending_.erase(it);

    auto reply = make_message(MessageKind::kPacket);
    reply->data = frames::kvs_get_reply(Ipv4Addr{op.dst_ip},
                                        Ipv4Addr{op.src_ip}, op.tenant,
                                        op.key, op.request_id, msg.data);
    reply->tenant = TenantId{op.tenant};
    reply->slack = op.slack;
    reply->created_at = op.created_at;
    reply->nic_ingress_at = op.nic_ingress_at;
    reply->ingress_port = op.ingress_port;
    reply->egress_port = op.ingress_port;
    ++replies_;
    // Inject the reply toward the wire via the default route (the RMT
    // pipeline deparses and switches it to the Ethernet port, §3.2).
    const auto route = lookup_table().route(*reply);
    if (route.has_value() && *route != id()) {
      emit(std::move(reply), *route, now);
    }
    return false;
  }

  return true;  // unrelated traffic continues along its chain
}

void RdmaEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "requests_issued", &issued_);
  m.expose_counter(metric_prefix() + "replies_generated", &replies_);
  m.expose_counter(metric_prefix() + "overflow_drops", &overflow_);
}

}  // namespace panic::engines
