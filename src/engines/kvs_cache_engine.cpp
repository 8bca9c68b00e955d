#include "engines/kvs_cache_engine.h"

#include <cassert>

#include "net/packet.h"
#include "telemetry/telemetry.h"

namespace panic::engines {

constexpr Cycles kLookupCycles = 4;  ///< one SRAM cache lookup

KvsCacheEngine::KvsCacheEngine(std::string name, noc::NetworkInterface* ni,
                               const EngineConfig& config,
                               const KvsCacheConfig& kvs, HostMemory* host)
    : Engine(std::move(name), ni, config), kvs_(kvs), host_(host) {
  assert(host_ != nullptr);
}

Cycles KvsCacheEngine::service_time(const Message& msg) const {
  (void)msg;
  return kLookupCycles;
}

void KvsCacheEngine::touch(std::uint64_t key, Entry& entry) {
  lru_.erase(entry.lru_it);
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
}

void KvsCacheEngine::insert(std::uint64_t key, Entry entry) {
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.erase(it->second.lru_it);
    index_.erase(it);
  }
  while (index_.size() >= kvs_.capacity_entries && !lru_.empty()) {
    index_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  index_.emplace(key, std::move(entry));
}

bool KvsCacheEngine::handle_get(Message& msg, Cycle now) {
  const auto it = index_.find(msg.meta.kvs_key);
  if (it == index_.end()) {
    ++misses_;
    return true;  // continue along the chain toward the host (DMA engine)
  }
  ++hits_;
  Entry& entry = it->second;
  touch(msg.meta.kvs_key, entry);

  if (kvs_.mode == KvsCacheMode::kValue) {
    // Generate the reply right here from cached value bytes.
    const auto parsed = parse_frame(msg.data);
    if (!parsed.has_value() || !parsed->kvs.has_value()) {
      ++misses_;
      --hits_;
      return true;
    }
    auto reply = make_message(MessageKind::kPacket);
    reply->data = frames::kvs_get_reply(
        parsed->ipv4->dst, parsed->ipv4->src, parsed->kvs->tenant,
        parsed->kvs->key, parsed->kvs->request_id, entry.value);
    reply->tenant = msg.tenant;
    reply->slack = msg.slack;
    reply->created_at = msg.created_at;
    reply->nic_ingress_at = msg.nic_ingress_at;
    reply->ingress_port = msg.ingress_port;
    reply->egress_port = msg.ingress_port;  // back out the same port
    if (kvs_.reply_route.valid()) {
      emit(std::move(reply), kvs_.reply_route, now);
    }
    return false;  // request consumed
  }

  // kLocation: hand off to the RDMA engine with the host location.
  msg.dma_addr = entry.host_addr;
  msg.dma_bytes = entry.length;
  assert(kvs_.rdma_engine.valid());
  // Consume the hop naming this engine before redirecting.
  if (const auto hop = msg.chain.current();
      hop.has_value() && hop->engine == id()) {
    msg.chain.advance();
  }
  // Re-own the in-service message through the factory so the allocation
  // goes through the pool; move-assignment keeps the original id (the
  // redirect is logically the same message, and its trace stays stitched).
  auto owned = make_message(msg.kind);
  *owned = std::move(msg);
  emit(std::move(owned), kvs_.rdma_engine, now);
  return false;
}

bool KvsCacheEngine::handle_set(Message& msg, Cycle now) {
  (void)now;
  ++sets_;
  const auto parsed = parse_frame(msg.data);
  if (!parsed.has_value() || !parsed->kvs.has_value()) return true;
  const auto value = parsed->payload(msg.data);

  Entry entry;
  entry.length = static_cast<std::uint32_t>(value.size());
  if (kvs_.mode == KvsCacheMode::kValue) {
    entry.value.assign(value.begin(), value.end());
  } else {
    // Write the value to host memory and cache its location — the paper's
    // "append the value in the SET to a log" plus a location-cache update.
    entry.host_addr = host_->allocate(entry.length);
    host_->write(entry.host_addr, value);
  }
  insert(parsed->kvs->key, std::move(entry));
  return true;  // the SET continues to the host along its chain
}

bool KvsCacheEngine::process(Message& msg, Cycle now) {
  if (msg.kind != MessageKind::kPacket || !msg.meta_valid ||
      !msg.meta.is_kvs) {
    return true;  // non-KVS traffic passes through
  }
  switch (static_cast<KvsOp>(msg.meta.kvs_op)) {
    case KvsOp::kGet:
      return handle_get(msg, now);
    case KvsOp::kSet:
      return handle_set(msg, now);
    default:
      return true;
  }
}

void KvsCacheEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "hits", &hits_);
  m.expose_counter(metric_prefix() + "misses", &misses_);
  m.expose_counter(metric_prefix() + "sets", &sets_);
  m.expose_gauge(metric_prefix() + "entries",
                 [this] { return static_cast<double>(index_.size()); });
}

}  // namespace panic::engines
