#include "noc/network_interface.h"

#include <cassert>

#include "noc/mesh.h"
#include "telemetry/telemetry.h"

namespace panic::noc {

NetworkInterface::NetworkInterface(EngineId tile, std::uint32_t channel_bits,
                                   Router* router)
    : tile_(tile),
      channel_bits_(channel_bits),
      router_(router),
      pending_(kInjectDepth) {
  assert(router_ != nullptr);
  assert(channel_bits_ > 0);
}

void NetworkInterface::inject(MessagePtr msg, EngineId dst, Cycle /*now*/) {
  assert(can_inject());
  assert(msg != nullptr);
  PendingMessage p;
  p.total_flits = flits_for(msg->wire_size(), channel_bits_);
  p.msg = std::move(msg);
  p.dst = dst;
  pending_.push(std::move(p));
  mesh_->mark_ni(tile_.value);
}

MessagePtr NetworkInterface::try_receive(Cycle now) {
  if (auto msg = received_.try_pop(now)) return std::move(*msg);
  return nullptr;
}

std::uint64_t NetworkInterface::flits_sent() const {
  if (inject_held_) mesh_->settle_trains();
  return flits_sent_;
}

void NetworkInterface::tick(Cycle now) {
  // Injection: one flit per cycle into the router's local input.
  if (!inject_held_ && !pending_.empty() &&
      router_->can_accept(Direction::kLocal)) {
    PendingMessage& p = pending_.front();
    Flit flit(p.dst, p.sent_flits, p.total_flits);
    const bool tail = flit.is_tail();
    if (tail) flit.msg = std::move(p.msg);
    router_->accept(Direction::kLocal, std::move(flit), now);
    ++p.sent_flits;
    ++flits_sent_;
    if (tail) {
      ++messages_sent_;
      pending_.pop();
    } else if (train_candidates_ != nullptr &&
               p.sent_flits + Mesh::kMinTrainCycles < p.total_flits) {
      train_candidates_->push_back(this);
    }
  }

  // Ejection: one flit per cycle from the router's eject queue.  Wormhole
  // switching guarantees flits of a message arrive contiguously, so the
  // message is complete when its tail flit appears.
  if (eject_held_) return;
  if (auto flit = router_->eject_queue().try_pop_flit(now)) {
    ejected_at_ = now;
    if (flit->is_tail()) {
      assert(flit->msg != nullptr);
      received_.try_push(std::move(flit->msg), now);
      ++messages_received_;
      if (client_ != nullptr) client_->request_wake(now);
    }
  }
}

void NetworkInterface::register_telemetry(telemetry::Telemetry& t) {
  t.tracer().intern("ni(" + std::to_string(tile_.value) + ")");
  auto& m = t.metrics();
  const std::string prefix = "noc.ni." + std::to_string(tile_.value) + ".";
  m.expose_counter(prefix + "messages_sent", &messages_sent_);
  m.expose_counter(prefix + "messages_received", &messages_received_);
  m.expose_counter(prefix + "flits_sent", &flits_sent_);
  m.expose_gauge(prefix + "rx_high_watermark", [this] {
    return static_cast<double>(received_.high_watermark());
  });
}

}  // namespace panic::noc
