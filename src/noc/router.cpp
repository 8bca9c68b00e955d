#include "noc/router.h"

#include <cassert>

#include "noc/mesh.h"
#include "telemetry/telemetry.h"

namespace panic::noc {

const char* to_string(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kEast: return "E";
    case Direction::kSouth: return "S";
    case Direction::kWest: return "W";
    case Direction::kLocal: return "L";
  }
  return "?";
}

namespace {
constexpr std::size_t kEjectDepth = 8;  // flits buffered toward the NI
}  // namespace

Router::Router(int x, int y, int k, std::size_t buffer_flits,
               RoutingAlgo algo)
    : Component("router(" + std::to_string(x) + "," + std::to_string(y) + ")"),
      x_(x),
      y_(y),
      k_(k),
      algo_(algo),
      inputs_{FlitBurstQueue(buffer_flits), FlitBurstQueue(buffer_flits),
              FlitBurstQueue(buffer_flits), FlitBurstQueue(buffer_flits),
              FlitBurstQueue(buffer_flits)},
      eject_(kEjectDepth) {
  output_owner_.fill(-1);
  rr_.fill(0);
  forwarded_at_.fill(kNeverWake);
}

std::uint64_t Router::flits_routed() const {
  if (held_out_ != 0) mesh_->settle_trains();
  return flits_routed_;
}

void Router::connect(Direction dir, Router* neighbor) {
  const int d = static_cast<int>(dir);
  neighbors_[d] = neighbor;
  // Registered credits start at the downstream input buffer's full depth.
  if (dir != Direction::kLocal && neighbor != nullptr) {
    credits_[d] = static_cast<std::uint32_t>(
        neighbor->inputs_[static_cast<int>(kReverse[d])].capacity());
  }
}

void Router::flush_credits() {
  for (int o = 0; o < 4; ++o) {
    std::uint32_t r = returns_staged_[o];
    if (r == 0) continue;
    returns_staged_[o] = 0;
    if (leak_debt_[o] != 0) {
      const std::uint32_t take = r < leak_debt_[o] ? r : leak_debt_[o];
      leak_debt_[o] -= take;
      r -= take;
    }
    credits_[o] += r;
  }
}

bool Router::can_accept(Direction from) const {
  const auto& q = inputs_[static_cast<int>(from)];
  if (!faults_armed_) return !q.full();
  // Leaked credits shrink the effective buffer (upstream sees fewer
  // credits than the buffer physically holds).
  const std::uint32_t leaked =
      port_faults_[static_cast<int>(from)].leaked_credits;
  return q.size() + leaked < q.capacity();
}

void Router::accept(Direction from, Flit flit, Cycle now) {
  auto& q = inputs_[static_cast<int>(from)];
  assert(!q.full());
  // The assert above vanishes under NDEBUG; keep a counter the fuzz
  // harness's lossless-NoC oracle can check in any build flavor.
  if (!can_accept(from)) ++credit_violations_;
  // +1: the hop latency — the flit is routable the cycle after it arrives.
  Cycle ready = now + 1;
  if (faults_armed_) {
    PortFault& pf = port_faults_[static_cast<int>(from)];
    if (pf.flaky_p > 0.0 && now < pf.flaky_until &&
        pf.rng.bernoulli(pf.flaky_p)) {
      ready += pf.flaky_delay;
      ++flits_delayed_;
    }
  }
  q.push_flit(std::move(flit), ready);
  // An awake router re-discovers the flit itself: it ticks every cycle
  // and its parking poll (next_wake) scans the input FIFOs.  Eliding the
  // redundant wake here removes the hottest request_wake call site under
  // saturation (one per accepted flit).
  if (!kernel_awake()) request_wake(ready);  // the flit's ready cycle
}

bool Router::permitted(Direction dir, EngineId dst) const {
  if (algo_ == RoutingAlgo::kXY) return dir == xy_output(dst);
  const int dx = dst.value % k_ - x_;
  const int dy = dst.value / k_ - y_;
  if (dx == 0 && dy == 0) return dir == Direction::kLocal;

  // West-first: all West hops first; afterwards any productive direction
  // (E/N/S toward the destination) is allowed — turns into West are the
  // only ones prohibited, which breaks every cycle of the turn graph.
  if (dx < 0) return dir == Direction::kWest;
  switch (dir) {
    case Direction::kEast: return dx > 0;
    case Direction::kSouth: return dy > 0;
    case Direction::kNorth: return dy < 0;
    default: return false;
  }
}

bool Router::downstream_ready(Direction out) const {
  if (out == Direction::kLocal) return !eject_.full();
  assert(neighbors_[static_cast<int>(out)] != nullptr &&
         "flit routed toward a missing neighbor");
  return credits_[static_cast<int>(out)] > 0;
}

void Router::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  auto& m = t.metrics();
  const std::string prefix =
      "noc.router." + std::to_string(y_ * k_ + x_) + ".";
  m.expose_counter(prefix + "flits", &flits_routed_);
  m.expose_counter(prefix + "stall_cycles", &stall_cycles_);
  m.expose_counter(prefix + "flits_delayed", &flits_delayed_);
  m.expose_counter(prefix + "credits_leaked", &credits_leaked_);
  m.expose_counter(prefix + "credit_violations", &credit_violations_);
}

void Router::fault_link(int port, double probability, Cycles delay,
                        Cycle until, std::uint64_t seed) {
  if (mesh_ != nullptr) mesh_->end_trains();
  for (int p = 0; p < kNumPorts; ++p) {
    if (port >= 0 && p != port) continue;
    PortFault& pf = port_faults_[p];
    pf.flaky_p = probability;
    pf.flaky_delay = delay;
    pf.flaky_until = until;
    // Distinct stream per port so an all-port fault stays deterministic.
    pf.rng = Rng(seed + static_cast<std::uint64_t>(p) * 0x9E3779B9ull);
  }
  faults_armed_ = true;
}

void Router::fault_leak_credits(int port, std::uint32_t amount) {
  if (mesh_ != nullptr) mesh_->end_trains();
  for (int p = 0; p < kNumPorts; ++p) {
    if (port >= 0 && p != port) continue;
    port_faults_[p].leaked_credits += amount;
    credits_leaked_ += amount;
    // Mesh inputs: take the credits away from the upstream's registered
    // count for its output toward us.  What the upstream does not hold
    // right now becomes debt that swallows future staged returns — the
    // leak is permanent either way (a leak >= the buffer depth wedges the
    // link, which is what the watchdog exists to flag).  kLocal keeps the
    // live can_accept() check the NI performs.
    if (p == static_cast<int>(Direction::kLocal)) continue;
    Router* up = neighbors_[p];
    if (up == nullptr) continue;
    const int up_out = static_cast<int>(kReverse[p]);
    const std::uint32_t held = up->credits_[up_out];
    const std::uint32_t taken = held < amount ? held : amount;
    up->credits_[up_out] = held - taken;
    up->leak_debt_[up_out] += amount - taken;
  }
  faults_armed_ = true;
}

void Router::forward(Direction out, Flit flit, Cycle now) {
  ++flits_routed_;
  // The tail flit carries the message, so the hop is attributed when the
  // whole message has cleared this router (keeps Flit free of extra
  // per-flit state on the hot path).
  if (flit.is_tail() && flit.msg != nullptr) {
    trace(telemetry::TraceEventKind::kNocHop, now, flit.msg->id,
          flit.dst.value);
  }
  if (out == Direction::kLocal) {
    assert(!eject_.full());
    eject_.push_flit(std::move(flit), now + 1);
    // The NI's next_wake scans this eject queue, so an awake NI needs no
    // explicit wake (same elision as Router::accept).
    if (local_sink_ != nullptr && !local_sink_->kernel_awake()) {
      local_sink_->request_wake(now + 1);
    }
    return;
  }
  const int o = static_cast<int>(out);
  assert(credits_[o] > 0 && "forward() without a credit");
  --credits_[o];
  Router* n = neighbors_[o];
  if (boundary_out_[o] != nullptr) {
    // Shard boundary: the coordinator replays the accept() at the cycle
    // barrier, before any serial component ticks — same cycle, same ready
    // stamp, so downstream state is indistinguishable from direct
    // delivery.
    boundary_out_[o]->push_back(BoundaryFlit{n, kReverse[o], std::move(flit)});
    return;
  }
  n->accept(kReverse[o], std::move(flit), now);
}

void Router::tick(Cycle now) {
  // Fast path: with every input empty the full allocation loop below is a
  // no-op (owned outputs have nothing ready, free outputs find no head
  // flit, and no counter moves).  Off-path routers hit this every cycle
  // under the dense kernel, so it pays to skip the 5x5 scan outright.  An
  // input a train holds counts as empty: the Mesh moves its flits.
  unsigned busy = 0;
  for (int i = 0; i < kNumPorts; ++i) {
    if (!inputs_[i].empty()) busy |= 1u << i;
  }
  if ((busy & ~unsigned{held_in_}) == 0) return;

  // One flit may leave per output port per cycle; one flit may leave per
  // input port per cycle.  Held inputs start used, held outputs are
  // skipped.
  unsigned input_used = held_in_;

  for (int o = 0; o < kNumPorts; ++o) {
    if ((held_out_ >> o & 1u) != 0) continue;
    const auto out = static_cast<Direction>(o);

    int chosen = -1;
    if (output_owner_[o] >= 0) {
      // Wormhole: the output is locked to an input until the tail passes.
      const int i = output_owner_[o];
      if ((input_used >> i & 1u) == 0 && inputs_[i].ready(now)) chosen = i;
    } else {
      // Allocate: round-robin over inputs whose ready head flit is a head
      // flit routed to this output.
      for (int step = 0; step < kNumPorts; ++step) {
        const int i = (rr_[o] + step) % kNumPorts;
        if ((input_used >> i & 1u) != 0) continue;
        const FlitBurst* b = inputs_[i].peek(now);
        if (b == nullptr || b->seq != 0) continue;  // need a head flit
        if (!permitted(out, b->dst)) continue;
        chosen = i;
        rr_[o] = (i + 1) % kNumPorts;
        break;
      }
    }

    if (chosen < 0) continue;
    if (!downstream_ready(out)) {
      ++stall_cycles_;  // a flit was ready but the downstream buffer was full
      continue;
    }

    Flit flit = *inputs_[chosen].try_pop_flit(now);
    input_used |= 1u << chosen;
    output_owner_[o] = flit.is_tail() ? -1 : chosen;
    forwarded_at_[o] = now;
    // Return the freed buffer slot to the upstream router as a credit,
    // visible after the end-of-cycle flush (kLocal is fed by the NI,
    // which uses the live can_accept() check instead).
    if (chosen != static_cast<int>(Direction::kLocal) &&
        neighbors_[chosen] != nullptr) {
      Router* up = neighbors_[chosen];
      up->stage_credit_return(kReverse[chosen]);
      credit_dirty_->push_back(up);
    }
    if (flit.msg != nullptr) ++flit.msg->noc_hops;  // tail flit carries msg
    forward(out, std::move(flit), now);
  }
}

Direction Router::xy_output(EngineId dst) const {
  // Dimension order: X fully, then Y.
  const int dx = dst.value % k_ - x_;
  const int dy = dst.value / k_ - y_;
  if (dx > 0) return Direction::kEast;
  if (dx < 0) return Direction::kWest;
  if (dy > 0) return Direction::kSouth;
  if (dy < 0) return Direction::kNorth;
  return Direction::kLocal;
}

Cycle Router::next_wake(Cycle now) const {
  // Each input FIFO's head is its earliest-ready flit (ready stamps are
  // monotonic per port).  A head that is already routable but stalled on a
  // full downstream retries every cycle so stall accounting matches the
  // dense kernel.  Held inputs are the Mesh's to move, and an XY head
  // flit waiting for a held output cannot move (or stall) before the
  // train hands the path back, which wakes this router.
  Cycle next = kNeverWake;
  for (int i = 0; i < kNumPorts; ++i) {
    const FlitBurstQueue& q = inputs_[i];
    if (q.empty() || (held_in_ >> i & 1u) != 0) continue;
    if (held_out_ != 0 && algo_ == RoutingAlgo::kXY && q.front().seq == 0 &&
        (held_out_ >> static_cast<int>(xy_output(q.front().dst)) & 1u) != 0) {
      continue;
    }
    const Cycle ready = q.next_ready() > now + 1 ? q.next_ready() : now + 1;
    if (ready < next) next = ready;
  }
  return next;
}

}  // namespace panic::noc
