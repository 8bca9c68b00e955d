#include "noc/mesh.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace panic::noc {

namespace {
constexpr int kLocalPort = static_cast<int>(Direction::kLocal);
}  // namespace

Mesh::Mesh(const MeshConfig& config, Simulator& sim)
    : config_(config), sim_(sim) {
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
          tile, config_.channel_bits, routers_[tile.value].get(),
          config_.inject_depth));
    }
  }

  // Tick NIs before routers so an injected flit can be considered by the
  // router on the next cycle (both use ready = now + 1, so order only
  // affects constant staging latency, not correctness).  Trains rely on
  // this order: a destination NI pops its eject queue before its router
  // pushes into it.
  for (auto& ni : nis_) sim.add(ni.get());
  for (auto& r : routers_) sim.add(r.get());
  for (auto& r : routers_) r->mesh_ = this;
  for (auto& ni : nis_) ni->mesh_ = this;

  auto& metrics = sim.telemetry().metrics();
  metrics.expose_gauge("noc.flits_routed", [this] {
    return static_cast<double>(total_flits_routed());
  });
  metrics.expose_counter("kernel.noc.trains", &trains_formed_);
  metrics.expose_counter("kernel.noc.train_moves", &train_moves_);

  // Trains are the event kernel's alone: the dense kernel is the per-flit
  // reference, and in the parallel kernel a path would cross shards.
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
  // returns staged, so only they are flushed.
  wire_credit_dirty_lists(sim);
  sim.add_end_of_cycle_hook([this](Cycle now) { end_of_cycle(now); });
}

void Mesh::end_of_cycle(Cycle now) {
  for (auto& dirty : credit_dirty_) {
    for (Router* r : dirty) r->flush_credits();
    dirty.clear();
  }
  if (now >= next_train_end_) {
    Cycle next = Component::kNeverWake;
    std::size_t keep = 0;
    for (const int tile : active_trains_) {
      Train& t = trains_[static_cast<std::size_t>(tile)];
      // The source is due on the train's last cycle, so that cycle always
      // runs (fast-forward stops there).
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
  src.inject_held_until_ = t.end;
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
  const Cycle wake = through + 1;
  t.src->inject_held_ = false;
  t.src->request_wake(wake);
  for (const TrainHop& h : t.hops) {
    h.router->held_in_ &= static_cast<std::uint8_t>(~(1u << h.in));
    h.router->held_out_ &= static_cast<std::uint8_t>(~(1u << h.out));
    h.router->request_wake(wake);
  }
  t.dst->eject_held_ = false;
  t.dst->request_wake(wake);
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

void Mesh::wire_credit_dirty_lists(const Simulator& sim) {
  credit_dirty_.assign(static_cast<std::size_t>(sim.num_shards()) + 1, {});
  // A router pops at most one flit per mesh input per cycle, so four
  // entries per router bound a list between two flushes: appends never
  // allocate.
  for (auto& list : credit_dirty_) list.reserve(4 * routers_.size());
  for (auto& r : routers_) {
    r->set_credit_dirty_list(
        &credit_dirty_[static_cast<std::size_t>(sim.shard_of(r.get()) + 1)]);
  }
}

void Mesh::assign_shards(const std::vector<int>& tile_to_shard,
                         Simulator& sim) {
  if (sim.mode() != SimMode::kParallelShards) return;
  assert(tile_to_shard.size() == static_cast<std::size_t>(tiles()));
  tile_shards_ = tile_to_shard;
  boundary_staged_.resize(static_cast<std::size_t>(sim.num_shards()));

  const int k = config_.k;
  for (int t = 0; t < tiles(); ++t) {
    const int shard = tile_shards_[static_cast<std::size_t>(t)];
    sim.set_shard(nis_[static_cast<std::size_t>(t)].get(), shard);
    sim.set_shard(routers_[static_cast<std::size_t>(t)].get(), shard);
    if (shard < 0) continue;
    // Mark outputs whose neighbor lives on another shard as boundaries;
    // the staging vector belongs to the *source* shard (single writer).
    const int x = t % k, y = t / k;
    struct Hop {
      Direction dir;
      int dx, dy;
    };
    static constexpr Hop kHops[] = {{Direction::kNorth, 0, -1},
                                    {Direction::kEast, 1, 0},
                                    {Direction::kSouth, 0, 1},
                                    {Direction::kWest, -1, 0}};
    for (const Hop& h : kHops) {
      const int nx = x + h.dx, ny = y + h.dy;
      if (nx < 0 || nx >= k || ny < 0 || ny >= k) continue;
      const int nt = ny * k + nx;
      if (tile_shards_[static_cast<std::size_t>(nt)] != shard) {
        routers_[static_cast<std::size_t>(t)]->set_boundary(
            h.dir, &boundary_staged_[static_cast<std::size_t>(shard)]);
      }
    }
  }
  wire_credit_dirty_lists(sim);

  // The coordinator replays staged boundary flits right after the cycle
  // barrier, before serial components tick: deterministic order (by source
  // shard, then staging order within the shard), and inter-port ordering
  // is immaterial — each mesh input port has exactly one producer.
  sim.add_post_parallel_hook([this](Cycle now) {
    for (auto& staged : boundary_staged_) {
      for (BoundaryFlit& bf : staged) {
        bf.target->accept(bf.from, std::move(bf.flit), now);
      }
      staged.clear();
    }
  });
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
