#include "engines/ethernet_port.h"

#include <cmath>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace panic::engines {

void EthernetPortEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  const std::string p = metric_prefix();
  m.expose_gauge(p + "rx_packets",
                 [this] { return static_cast<double>(rx_meter_.packets()); });
  m.expose_gauge(p + "rx_bytes",
                 [this] { return static_cast<double>(rx_meter_.bytes()); });
  m.expose_gauge(p + "tx_packets",
                 [this] { return static_cast<double>(tx_meter_.packets()); });
  m.expose_gauge(p + "tx_bytes",
                 [this] { return static_cast<double>(tx_meter_.bytes()); });
  m.expose_histogram(p + "tx_latency", &tx_latency_);
}

EthernetPortEngine::EthernetPortEngine(std::string name,
                                       noc::NetworkInterface* ni,
                                       const EngineConfig& config,
                                       DataRate line_rate, Frequency clock)
    : Engine(std::move(name), ni, config),
      line_rate_(line_rate),
      clock_(clock) {}

void EthernetPortEngine::deliver_rx(MessagePtr msg, Cycle now,
                                    TenantId tenant) {
  rx_meter_.add_packet(msg->data.size());
  msg->kind = MessageKind::kPacket;
  msg->created_at = now;
  msg->nic_ingress_at = now;
  msg->tenant = tenant;
  msg->ingress_port = id();
  const auto next = lookup_table().route(*msg);
  if (next.has_value()) {
    emit(std::move(msg), *next, now);
  } else {
    // No route configured: the frame is dropped at the MAC (misconfigured
    // NIC); RX meter still counts it so the loss is visible.
    PANIC_DEBUG("eth", "%s: RX frame dropped, no route configured",
                name().c_str());
    trace(telemetry::TraceEventKind::kDrop, now, msg->id);
    msg->set_fate(MessageFate::kDropped);
  }
}

Cycles EthernetPortEngine::service_time(const Message& msg) const {
  // Wire serialization time at line rate (+ preamble/IFG overhead).
  const double wire_bits =
      static_cast<double>(msg.data.size() +
                          (kMinWireSizeBytes - kMinFrameBytes)) *
      8.0;
  const double cycles = wire_bits / line_rate_.bits_per_cycle(clock_);
  return static_cast<Cycles>(std::ceil(cycles));
}

bool EthernetPortEngine::process(Message& msg, Cycle now) {
  // A message reaching an Ethernet tile is a TX.
  tx_meter_.add_packet(msg.data.size());
  trace(telemetry::TraceEventKind::kTxWire, now, msg.id,
        static_cast<std::uint32_t>(msg.data.size()));
  if (now >= msg.nic_ingress_at) {
    tx_latency_.record(now - msg.nic_ingress_at);
  }
  if (tx_sink_) tx_sink_(msg, now);
  msg.set_fate(MessageFate::kDelivered);  // left the NIC on the wire
  return false;
}

}  // namespace panic::engines
