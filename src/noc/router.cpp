#include "noc/router.h"

#include <bit>
#include <cassert>
#include <limits>
#include <string>

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
constexpr unsigned kAllPorts = (1u << kNumPorts) - 1;
}  // namespace

Router::Router(int x, int y, int k, std::size_t buffer_flits,
               RoutingAlgo algo)
    : x_(x),
      y_(y),
      k_(k),
      tile_(y * k + x),
      algo_(algo),
      inputs_{FlitBurstQueue(buffer_flits), FlitBurstQueue(buffer_flits),
              FlitBurstQueue(buffer_flits), FlitBurstQueue(buffer_flits),
              FlitBurstQueue(buffer_flits)},
      eject_(kEjectDepth) {
  output_owner_.fill(-1);
  rr_.fill(0);
  forwarded_at_.fill(std::numeric_limits<Cycle>::max());
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
  const int in = static_cast<int>(from);
  auto& q = inputs_[in];
  assert(!q.full());
  // The assert above vanishes under NDEBUG; keep a counter the fuzz
  // harness's lossless-NoC oracle can check in any build flavor.
  if (!can_accept(from)) ++credit_violations_;
  // +1: the hop latency — the flit is routable the cycle after it arrives.
  Cycle ready = now + 1;
  if (faults_armed_) {
    PortFault& pf = port_faults_[in];
    if (pf.flaky_p > 0.0 && now < pf.flaky_until &&
        pf.rng.bernoulli(pf.flaky_p)) {
      ready += pf.flaky_delay;
      ++flits_delayed_;
    }
  }
  // Route computation happens once per head flit per hop, here.
  const std::uint8_t outs = flit.is_head() ? route(flit.dst) : 0;
  q.push_flit(std::move(flit), ready, outs);
  occupied_ |= static_cast<std::uint8_t>(1u << in);
  mesh_->mark_router(tile_);
}

std::uint8_t Router::route(EngineId dst) const {
  const auto bit = [](Direction d) {
    return static_cast<std::uint8_t>(1u << static_cast<int>(d));
  };
  const int dx = dst.value % k_ - x_;
  const int dy = dst.value / k_ - y_;
  // Both algorithms take every West hop first.  XY then finishes X before
  // turning into Y; west-first may take any productive direction (E/N/S
  // toward the destination) — turns into West are the only ones it
  // prohibits, which breaks every cycle of the turn graph.
  if (dx < 0) return bit(Direction::kWest);
  std::uint8_t outs = dx > 0 ? bit(Direction::kEast) : 0;
  if (outs == 0 || algo_ == RoutingAlgo::kWestFirst) {
    if (dy > 0) outs |= bit(Direction::kSouth);
    if (dy < 0) outs |= bit(Direction::kNorth);
  }
  return outs != 0 ? outs : bit(Direction::kLocal);
}

bool Router::downstream_ready(Direction out) const {
  if (out == Direction::kLocal) return !eject_.full();
  assert(neighbors_[static_cast<int>(out)] != nullptr &&
         "flit routed toward a missing neighbor");
  return credits_[static_cast<int>(out)] > 0;
}

void Router::register_telemetry(telemetry::Telemetry& t) {
  tracer_ = &t.tracer();
  trace_tag_ = tracer_->intern("router(" + std::to_string(x_) + "," +
                               std::to_string(y_) + ")");
  auto& m = t.metrics();
  const std::string prefix = "noc.router." + std::to_string(tile_) + ".";
  m.expose_counter(prefix + "flits", &flits_routed_);
  m.expose_counter(prefix + "stall_cycles", &stall_cycles_);
  m.expose_counter(prefix + "flits_delayed", &flits_delayed_);
  m.expose_counter(prefix + "credits_leaked", &credits_leaked_);
  m.expose_counter(prefix + "credit_violations", &credit_violations_);
}

void Router::fault_link(int port, double probability, Cycles delay,
                        Cycle until, std::uint64_t seed) {
  mesh_->end_trains();
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
  mesh_->end_trains();
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
  if (flit.is_tail() && flit.msg != nullptr && tracer_ != nullptr) {
    tracer_->record(telemetry::TraceEventKind::kNocHop, now, flit.msg->id,
                    trace_tag_, flit.dst.value);
  }
  if (out == Direction::kLocal) {
    assert(!eject_.full());
    eject_.push_flit(std::move(flit), now + 1);
    mesh_->mark_ni(tile_);
    return;
  }
  const int o = static_cast<int>(out);
  assert(credits_[o] > 0 && "forward() without a credit");
  --credits_[o];
  neighbors_[o]->accept(kReverse[o], std::move(flit), now);
}

void Router::tick(Cycle now) {
  // Only occupied inputs a train does not hold can move a flit (the Mesh
  // moves a held input's flits).  Off-path routers stop here every cycle
  // under the dense kernel.
  const unsigned live = occupied_ & ~unsigned{held_in_};
  if (live == 0) return;

  // Inputs whose front flit is ready, per output the inputs whose ready
  // front flit is a head permitted there, and the outputs worth visiting:
  // the owned ones and the requested ones.
  unsigned ready = 0;
  std::array<unsigned, kNumPorts> requests{};
  unsigned visit = owned_;
  for (unsigned m = live; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    const FlitBurst& b = inputs_[i].front();
    if (b.ready > now) continue;
    ready |= 1u << i;
    if (b.seq != 0) continue;
    visit |= b.route;
    for (unsigned r = b.route; r != 0; r &= r - 1) {
      requests[std::countr_zero(r)] |= 1u << i;
    }
  }
  if (ready == 0) return;

  // One flit may leave per output port per cycle; one flit may leave per
  // input port per cycle.  Outputs go in index order; held ones are
  // skipped.
  unsigned input_used = 0;
  for (visit &= ~unsigned{held_out_}; visit != 0; visit &= visit - 1) {
    const int o = std::countr_zero(visit);
    int chosen = output_owner_[o];
    if (chosen >= 0) {
      // Wormhole: the output is locked to an input until the tail passes.
      if (((ready & ~input_used) >> chosen & 1u) == 0) continue;
    } else {
      // Allocate: the first requester at or after the round-robin
      // pointer, which moves past it whether or not the flit can leave.
      const unsigned want = requests[o] & ~input_used;
      if (want == 0) continue;
      const unsigned rotated =
          (want >> rr_[o] | want << (kNumPorts - rr_[o])) & kAllPorts;
      chosen = (rr_[o] + std::countr_zero(rotated)) % kNumPorts;
      rr_[o] = (chosen + 1) % kNumPorts;
    }

    const auto out = static_cast<Direction>(o);
    if (!downstream_ready(out)) {
      ++stall_cycles_;  // a flit was ready but the downstream buffer was full
      continue;
    }

    FlitBurstQueue& q = inputs_[chosen];
    Flit flit = *q.try_pop_flit(now);
    if (q.empty()) occupied_ &= static_cast<std::uint8_t>(~(1u << chosen));
    input_used |= 1u << chosen;
    if (flit.is_tail()) {
      output_owner_[o] = -1;
      owned_ &= static_cast<std::uint8_t>(~(1u << o));
    } else {
      output_owner_[o] = chosen;
      owned_ |= static_cast<std::uint8_t>(1u << o);
    }
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

}  // namespace panic::noc
