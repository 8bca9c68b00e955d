#include "noc/mesh.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

namespace panic::noc {

namespace {
constexpr int kLocalPort = static_cast<int>(Direction::kLocal);
}  // namespace

Mesh::Mesh(const MeshConfig& config, Simulator& sim)
    : Component("mesh"), config_(config), sim_(sim) {
  const int k = config_.k;
  assert(k >= 2);
  routers_.reserve(static_cast<std::size_t>(k) * k);
  nis_.reserve(static_cast<std::size_t>(k) * k);

  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      routers_.push_back(std::make_unique<Router>(
          x, y, k, config_.buffer_flits, config_.routing));
    }
  }
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      Router* r = routers_[static_cast<std::size_t>(y) * k + x].get();
      if (y > 0) {
        r->connect(Direction::kNorth,
                   routers_[static_cast<std::size_t>(y - 1) * k + x].get());
      }
      if (y + 1 < k) {
        r->connect(Direction::kSouth,
                   routers_[static_cast<std::size_t>(y + 1) * k + x].get());
      }
      if (x > 0) {
        r->connect(Direction::kWest,
                   routers_[static_cast<std::size_t>(y) * k + x - 1].get());
      }
      if (x + 1 < k) {
        r->connect(Direction::kEast,
                   routers_[static_cast<std::size_t>(y) * k + x + 1].get());
      }
    }
  }
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const EngineId tile = tile_id(x, y);
      nis_.push_back(std::make_unique<NetworkInterface>(
          tile, config_.channel_bits, routers_[tile.value].get()));
    }
  }

  for (auto& r : routers_) r->mesh_ = this;
  for (auto& ni : nis_) ni->mesh_ = this;
  const std::size_t members = 2 * static_cast<std::size_t>(tiles());
  busy_.assign((members + 63) / 64, 0);
  assert(busy_.size() <= 64 && "busy_words_ has one bit per busy_ word");
  walk_.assign(busy_.size(), 0);
  sim.add(this);

  auto& metrics = sim.telemetry().metrics();
  metrics.expose_gauge("noc.flits_routed", [this] {
    return static_cast<double>(total_flits_routed());
  });
  metrics.expose_counter("kernel.noc.trains", &trains_formed_);
  metrics.expose_counter("kernel.noc.train_moves", &train_moves_);
  metrics.expose_counter("kernel.noc.member_ticks", &member_ticks_);

  // Trains are the event kernel's alone: the dense kernel is the per-flit
  // reference.
  if (sim.mode() == SimMode::kEventDriven) {
    trains_.resize(static_cast<std::size_t>(tiles()));
    active_trains_.reserve(static_cast<std::size_t>(tiles()));
    train_candidates_.reserve(static_cast<std::size_t>(tiles()));
    for (auto& ni : nis_) ni->train_candidates_ = &train_candidates_;
    metrics.add_settle_hook([this] { settle_trains(); });
  }

  // Registered credit-based flow control: credits freed by pops this cycle
  // become visible to upstream routers at the next cycle, in every kernel
  // mode (see noc/router.h).  Only the routers a pop listed as dirty have
  // returns staged, so only they are flushed.  A router pops at most one
  // flit per mesh input per cycle, so four entries per router bound the
  // list between two flushes: appends never allocate.
  credit_dirty_.reserve(4 * routers_.size());
  for (auto& r : routers_) r->set_credit_dirty_list(&credit_dirty_);
  sim.add_end_of_cycle_hook([this](Cycle now) { end_of_cycle(now); });
}

void Mesh::register_telemetry(telemetry::Telemetry& t) {
  for (auto& ni : nis_) ni->register_telemetry(t);
  for (auto& r : routers_) r->register_telemetry(t);
}

void Mesh::tick(Cycle now) {
  // NIs tick before routers, so a flit an NI injects reaches its router's
  // allocation on the next cycle (ready = now + 1 either way).  Trains
  // rely on this order: a destination NI pops its eject queue before its
  // router pushes into it.
  const auto n = static_cast<std::size_t>(tiles());
  if (sim_.mode() == SimMode::kStrictTick) {
    for (auto& ni : nis_) ni->tick(now);
    for (auto& r : routers_) r->tick(now);
    member_ticks_ += 2 * n;
    return;
  }
  const std::uint64_t words = busy_words_;
  for (std::uint64_t ws = words; ws != 0; ws &= ws - 1) {
    const auto w = static_cast<std::size_t>(std::countr_zero(ws));
    walk_[w] = busy_[w];
  }
  std::uint64_t ticks = 0;
  for (std::uint64_t ws = words; ws != 0; ws &= ws - 1) {
    const auto w = static_cast<std::size_t>(std::countr_zero(ws));
    for (std::uint64_t bits = walk_[w]; bits != 0; bits &= bits - 1) {
      const auto b = static_cast<unsigned>(std::countr_zero(bits));
      const std::size_t m = w * 64 + b;
      bool work;
      if (m < n) {
        NetworkInterface& ni = *nis_[m];
        ni.tick(now);
        work = ni.has_work();
      } else {
        Router& r = *routers_[m - n];
        r.tick(now);
        work = r.has_work();
      }
      if (!work) busy_[w] &= ~(std::uint64_t{1} << b);
      ++ticks;
    }
    // A later member may still hand this word work (a router ejecting to
    // its NI), which sets the bit again.
    if (busy_[w] == 0) busy_words_ &= ~(std::uint64_t{1} << w);
  }
  member_ticks_ += ticks;
}

Cycle Mesh::next_wake(Cycle now) const {
  if (busy_words_ != 0) return now + 1;
  return next_train_end_ > now ? next_train_end_ : now + 1;
}

void Mesh::end_of_cycle(Cycle now) {
  for (Router* r : credit_dirty_) r->flush_credits();
  credit_dirty_.clear();
  if (now >= next_train_end_) {
    Cycle next = Component::kNeverWake;
    std::size_t keep = 0;
    for (const int tile : active_trains_) {
      Train& t = trains_[static_cast<std::size_t>(tile)];
      // The Mesh is due on the train's last cycle (next_wake), so that
      // cycle always runs (fast-forward stops there).
      assert(t.end >= now);
      if (t.end == now) {
        hand_back(t, now);
        continue;
      }
      next = std::min(next, t.end);
      active_trains_[keep++] = tile;
    }
    active_trains_.resize(keep);
    next_train_end_ = next;
  }
  for (NetworkInterface* ni : train_candidates_) try_form_train(*ni, now);
  train_candidates_.clear();
}

void Mesh::try_form_train(NetworkInterface& src, Cycle now) {
  const NetworkInterface::PendingMessage& p = src.pending_.front();
  // The seq of the flit that will next enter the queue being checked: the
  // queues are walked from the source, and each must end right before
  // where its upstream neighbor's run begins.
  std::uint32_t next_seq = p.sent_flits;
  // Each queue between hops holds one contiguous run of the message, its
  // newest flit pushed this cycle.
  auto holds_run = [&](const FlitBurstQueue& q) {
    if (q.bursts() != 1) return false;
    const FlitBurst& b = q.front();
    if (b.dst != p.dst || b.total != p.total_flits ||
        b.seq + b.count != next_seq || b.ready + b.count != now + 2) {
      return false;
    }
    next_seq = b.seq;
    return true;
  };

  Train& t = trains_[src.tile().value];
  // Minimal routes visit at most 2k - 1 routers.
  const std::size_t max_hops = 2 * static_cast<std::size_t>(config_.k);
  if (t.hops.capacity() == 0) t.hops.reserve(max_hops);
  t.hops.clear();
  Router* r = src.router_;
  int in = kLocalPort;
  while (true) {
    if (r->faults_armed_ || t.hops.size() == max_hops) return;
    int out = -1;
    for (int o = 0; o < kNumPorts; ++o) {
      if (r->output_owner_[o] == in) {
        out = o;
        break;
      }
    }
    // Every hop moved one flit this cycle: its output, locked to the
    // message's input, forwarded now.
    if (out < 0 || r->forwarded_at_[out] != now ||
        (r->held_out_ >> out & 1u) != 0 || !holds_run(r->inputs_[in])) {
      return;
    }
    t.hops.push_back(TrainHop{r, static_cast<std::uint8_t>(in),
                              static_cast<std::uint8_t>(out)});
    if (out == kLocalPort) break;
    in = static_cast<int>(kReverse[out]);
    r = r->neighbors_[out];
  }
  NetworkInterface* dst = nis_[static_cast<std::size_t>(r->y()) * config_.k +
                               r->x()].get();
  if (dst->eject_held_ || dst->ejected_at_ != now || !holds_run(r->eject_)) {
    return;
  }

  t.src = &src;
  t.dst = dst;
  t.anchor = now;
  t.end = now + (p.total_flits - 1 - p.sent_flits);
  src.inject_held_ = true;
  for (const TrainHop& h : t.hops) {
    h.router->held_in_ |= static_cast<std::uint8_t>(1u << h.in);
    h.router->held_out_ |= static_cast<std::uint8_t>(1u << h.out);
  }
  dst->eject_held_ = true;
  active_trains_.push_back(src.tile().value);
  next_train_end_ = std::min(next_train_end_, t.end);
  ++trains_formed_;
}

void Mesh::advance(Train& t, Cycle through) {
  if (through <= t.anchor) return;
  // Every cycle carried, each queue on the path gained the message's next
  // flit at the back and lost its oldest, and every hop moved one flit:
  // occupancies and registered credits stay put, stamps and counters
  // shift by n.
  const auto n = static_cast<std::uint32_t>(through - t.anchor);
  t.anchor = through;
  t.src->pending_.front().sent_flits += n;
  t.src->flits_sent_ += n;
  for (const TrainHop& h : t.hops) {
    h.router->inputs_[h.in].advance(n);
    h.router->flits_routed_ += n;
  }
  t.hops.back().router->eject_.advance(n);
  train_moves_ += static_cast<std::uint64_t>(n) * t.hops.size();
}

void Mesh::hand_back(Train& t, Cycle through) {
  advance(t, through);
  t.src->inject_held_ = false;
  mark_ni(t.src->tile().value);
  for (const TrainHop& h : t.hops) {
    h.router->held_in_ &= static_cast<std::uint8_t>(~(1u << h.in));
    h.router->held_out_ &= static_cast<std::uint8_t>(~(1u << h.out));
    mark_router(h.router->tile_);
  }
  t.dst->eject_held_ = false;
  mark_ni(t.dst->tile().value);
}

void Mesh::settle_trains() {
  if (active_trains_.empty()) return;
  // Between steps and inside one, the last completed cycle is now - 1
  // (trains exist only after a cycle has completed).
  const Cycle last = sim_.now() - 1;
  for (const int tile : active_trains_) {
    Train& t = trains_[static_cast<std::size_t>(tile)];
    advance(t, std::min(t.end, last));
  }
}

void Mesh::end_trains() {
  if (active_trains_.empty()) return;
  const Cycle last = sim_.now() - 1;
  for (const int tile : active_trains_) {
    hand_back(trains_[static_cast<std::size_t>(tile)], last);
  }
  active_trains_.clear();
  next_train_end_ = Component::kNeverWake;
}

void Mesh::attach_router_watchdog() {
  end_trains();
  for (auto& ni : nis_) ni->train_candidates_ = nullptr;
}

int Mesh::distance(EngineId a, EngineId b) const {
  const int ax = a.value % config_.k, ay = a.value / config_.k;
  const int bx = b.value % config_.k, by = b.value / config_.k;
  return std::abs(ax - bx) + std::abs(ay - by);
}

std::uint64_t Mesh::total_flits_routed() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r->flits_routed();  // settles
  return total;
}

}  // namespace panic::noc
