#include "engines/pcie_engine.h"

#include "telemetry/telemetry.h"

namespace panic::engines {

PcieEngine::PcieEngine(std::string name, noc::NetworkInterface* ni,
                       const EngineConfig& config, const PcieConfig& pcie)
    : Engine(std::move(name), ni, config), pcie_(pcie) {}

Cycles PcieEngine::service_time(const Message& msg) const {
  (void)msg;
  return 1;
}

void PcieEngine::ring_tx_doorbell(std::uint64_t descriptor_addr, Cycle now) {
  auto doorbell = make_message(MessageKind::kDoorbell);
  doorbell->dma_addr = descriptor_addr;
  queue().try_enqueue(std::move(doorbell), now);
  // Doorbells arrive from the host driver, outside the NI wake path.
  request_wake(now);
}

void PcieEngine::route_or_consume(MessagePtr msg, Cycle now) {
  const auto route = lookup_table().route(*msg);
  if (route.has_value() && *route != id()) {
    emit(std::move(msg), *route, now);
  } else {
    msg->set_fate(MessageFate::kConsumed);
  }
}

void PcieEngine::handle_doorbell(Message& msg, Cycle now) {
  auto fetch = make_message(MessageKind::kDescriptorFetch);
  fetch->dma_addr = msg.dma_addr;
  fetch->reply_to = id();
  fetch->meta.cache_hint = kFetchDescriptor;
  fetch->meta_valid = true;
  route_or_consume(std::move(fetch), now);
}

void PcieEngine::handle_completion(Message& msg, Cycle now) {
  if (msg.meta.cache_hint == kFetchDescriptor) {
    ByteReader r(msg.data);
    const auto desc = TxDescriptor::parse(r);
    if (!desc.has_value() || desc->frame_len == 0 ||
        desc->port >= pcie_.eth_ports.size()) {
      ++tx_errors_;
      return;
    }
    pending_tx_[desc->frame_addr] = PendingTx{*desc, msg.dma_addr};

    auto fetch = make_message(MessageKind::kDmaRead);
    fetch->dma_addr = desc->frame_addr;
    fetch->dma_bytes = desc->frame_len;
    fetch->reply_to = id();
    fetch->tenant = TenantId{desc->tenant};
    fetch->meta.cache_hint = kFetchFrame;
    fetch->meta_valid = true;
    route_or_consume(std::move(fetch), now);
    return;
  }

  if (msg.meta.cache_hint == kFetchFrame) {
    const auto it = pending_tx_.find(msg.dma_addr);
    if (it == pending_tx_.end()) {
      ++tx_errors_;
      return;
    }
    const PendingTx pending = it->second;
    pending_tx_.erase(it);

    auto packet = make_message(MessageKind::kPacket);
    packet->data = std::move(msg.data);
    packet->from_host = true;
    packet->tenant = TenantId{pending.desc.tenant};
    packet->egress_port = pcie_.eth_ports[pending.desc.port];
    packet->nic_ingress_at = now;
    packet->created_at = now;
    ++tx_launched_;
    if (tx_launched_cb_) tx_launched_cb_(pending.desc_addr, now);
    // Toward the RMT pipeline, which classifies TX traffic (checksum,
    // optional encryption) and routes it to its egress port.
    route_or_consume(std::move(packet), now);
    return;
  }
  // Unmarked completion: not ours; drop.
}

bool PcieEngine::process(Message& msg, Cycle now) {
  switch (msg.kind) {
    case MessageKind::kInterrupt:
      if (now >= window_expires_) {
        ++delivered_;
        window_expires_ = now + pcie_.coalesce_window;
      } else {
        ++coalesced_;
      }
      return false;
    case MessageKind::kDoorbell:
      handle_doorbell(msg, now);
      return false;
    case MessageKind::kDmaCompletion:
      handle_completion(msg, now);
      return false;
    default:
      return true;  // unrelated traffic continues along its chain
  }
}

void PcieEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "interrupts_delivered", &delivered_);
  m.expose_counter(metric_prefix() + "interrupts_coalesced", &coalesced_);
  m.expose_counter(metric_prefix() + "tx_launched", &tx_launched_);
  m.expose_counter(metric_prefix() + "tx_errors", &tx_errors_);
}

}  // namespace panic::engines
