// Common ground of the baseline NIC architectures of §2.3.  Each baseline
// is an RxPort, as PANIC's Ethernet ports are, so one TrafficSource feeds
// both sides of a comparison the same frames.
//
// Every baseline charges the PANIC engines' own costs: the offload specs
// read the engines' default configs and cost model
// (engines::offload_cycles), and the DMA time is the DmaEngine's with
// contention off.  What differs is the *architecture*: how packets reach
// offloads and what coordination costs they pay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/fifo.h"
#include "common/stats.h"
#include "common/units.h"
#include "engines/dma_engine.h"
#include "engines/engine.h"
#include "net/message.h"
#include "net/rx_port.h"
#include "sim/component.h"
#include "telemetry/metrics.h"

namespace panic::baselines {

/// One offload unit as seen by a baseline NIC.
struct OffloadSpec {
  std::string name;
  Cycles fixed_cycles = 0;
  double cycles_per_byte = 0.0;
  /// Whether a given frame needs this offload (decided from parsed
  /// headers, e.g. "ESP packets need IPSec").
  std::function<bool(const Message&)> applies;

  Cycles service_cycles(const Message& msg) const {
    const Cycles t =
        engines::offload_cycles(fixed_cycles, cycles_per_byte, msg.size());
    return t == 0 ? 1 : t;
  }
};

/// Standard offload specs: the PANIC engines' default costs.
OffloadSpec ipsec_offload_spec();
OffloadSpec compression_offload_spec();
OffloadSpec checksum_offload_spec();
/// A deliberately slow offload for HOL-blocking experiments: applies to
/// frames addressed to `udp_port`.
OffloadSpec slow_offload_spec(Cycles fixed_cycles, std::uint16_t udp_port);

/// Cycles the baselines' DMA engine takes to move `bytes` to the host:
/// engines::DmaEngine's cost with contention off.
Cycles dma_cycles(const engines::DmaConfig& dma, std::size_t bytes);

/// Marks `msg.meta` from a software parse (baselines don't have the RMT
/// parser; they look at headers directly).
void annotate_message(Message& msg);

/// One FIFO queue feeding one server: every queueing point of the
/// baselines (pipeline stages, manycore cores, DMA engines, the host CPU).
/// Each tick the owner first takes the finished message, then starts the
/// next; a finished message the owner cannot hand on stays in service and
/// blocks the server (back-pressure).
class FifoServer {
 public:
  std::size_t queued() const { return queue_.size(); }
  void push(MessagePtr msg) { queue_.push(std::move(msg)); }

  /// The in-service message once its service time has elapsed, else
  /// nullptr.  Moving from it frees the server.
  MessagePtr* finished(Cycle now) {
    return in_service_ != nullptr && now >= done_at_ ? &in_service_
                                                     : nullptr;
  }

  /// When idle, starts the oldest queued message; `cost(msg)` gives its
  /// service cycles (0 counts as 1).
  template <typename Cost>
  void start_next(Cycle now, Cost&& cost) {
    if (in_service_ != nullptr || queue_.empty()) return;
    in_service_ = queue_.pop();
    const Cycles t = cost(*in_service_);
    done_at_ = now + (t == 0 ? 1 : t);
  }

  /// The next cycle this server can act: its completion (every cycle once
  /// due, so a blocked completion keeps retrying), the next cycle when it
  /// only has queued work, never when empty.
  Cycle next_wake(Cycle now) const {
    if (in_service_ != nullptr) return std::max(done_at_, now + 1);
    return queue_.empty() ? Component::kNeverWake : now + 1;
  }

 private:
  Fifo<MessagePtr> queue_;
  MessagePtr in_service_;
  Cycle done_at_ = 0;
};

/// The front end and host side every baseline NIC shares: frames enter
/// through deliver_rx() as stamped, annotated packet messages and leave
/// through deliver(), which records the host latency.  Each NIC keeps its
/// own admission rule.
class NicModel : public RxPort {
 public:
  /// Stamps `msg` as `tenant`'s packet, created and entering the NIC at
  /// `now`, annotates its headers, then hands it to admit().
  void deliver_rx(MessagePtr msg, Cycle now, TenantId tenant) final;

  /// Latency from injection to host delivery.
  const Histogram& host_latency() const { return latency_; }
  std::uint64_t packets_to_host() const { return delivered_; }
  std::uint64_t packets_dropped() const { return dropped_; }

 protected:
  /// The NIC's admission rule: queue `msg`, or drop() it.
  virtual void admit(MessagePtr msg, Cycle now) = 0;
  /// Counts a refused frame, which dies with fate kDropped.
  void drop(MessagePtr msg);
  /// Hands `msg` to the host: records its latency and marks it delivered.
  void deliver(MessagePtr msg, Cycle now);
  /// Publishes baseline.<nic>.{delivered,dropped,host_latency}; the NIC's
  /// own counters (`extra`, by suffix) go between dropped and
  /// host_latency.
  void expose_metrics(
      telemetry::MetricsRegistry& m, const std::string& nic,
      std::initializer_list<std::pair<const char*, std::uint64_t*>> extra =
          {});

 private:
  Histogram latency_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace panic::baselines
