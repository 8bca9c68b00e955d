// Ethernet MAC port engine.  In PANIC even the MACs are tiles on the mesh
// (Figure 3c shows "Eth 1" / "Eth 2" tiles).
//
// RX: the port is the NIC's RxPort.  The workload delivers frames via
// `deliver_rx` in pooled messages; the port sends them to its configured
// first hop (normally the heavyweight RMT pipeline).  RX pacing is the
// job of the traffic generator (an open-loop source models the wire).
//
// TX: messages routed to this tile are transmitted: the engine's service
// time models wire serialization at the configured line rate, then the
// frame is recorded (and handed to an optional sink for verification).
#pragma once

#include <functional>

#include "common/stats.h"
#include "engines/engine.h"
#include "net/rx_port.h"

namespace panic::engines {

class EthernetPortEngine : public Engine, public RxPort {
 public:
  using TxSink = std::function<void(const Message&, Cycle)>;

  EthernetPortEngine(std::string name, noc::NetworkInterface* ni,
                     const EngineConfig& config, DataRate line_rate,
                     Frequency clock);

  /// Stamps the frame and routes it to its first hop (dropped when no
  /// route is configured).
  void deliver_rx(MessagePtr msg, Cycle now, TenantId tenant) override;

  /// Observer for transmitted frames.
  void set_tx_sink(TxSink sink) { tx_sink_ = std::move(sink); }

  DataRate line_rate() const { return line_rate_; }

  const RateMeter& rx_meter() const { return rx_meter_; }
  const RateMeter& tx_meter() const { return tx_meter_; }
  /// Cycles from nic_ingress to transmission for packets that exited here.
  const Histogram& tx_latency() const { return tx_latency_; }

  /// Adds rx/tx packet+byte meters and the TX latency histogram.
  void register_telemetry(telemetry::Telemetry& t) override;

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  DataRate line_rate_;
  Frequency clock_;
  TxSink tx_sink_;
  RateMeter rx_meter_;
  RateMeter tx_meter_;
  Histogram tx_latency_;
};

}  // namespace panic::engines
