#include "reference.h"

#include <time.h>

#include <array>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

constexpr int kPorts = 5;  ///< N, E, S, W, local
constexpr std::size_t kFifoSlots = 8;

struct Packet {
  std::uint32_t flow = 0;
  std::uint16_t dst = 0;
  std::uint16_t hops = 0;
  std::uint64_t born = 0;
};

class Fifo {
 public:
  bool full() const { return size_ == kFifoSlots; }
  bool empty() const { return size_ == 0; }
  void push(const Packet& p) {
    slots_[(head_ + size_) % kFifoSlots] = p;
    ++size_;
  }
  Packet pop() {
    const Packet p = slots_[head_];
    head_ = (head_ + 1) % kFifoSlots;
    --size_;
    return p;
  }

 private:
  std::array<Packet, kFifoSlots> slots_{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class Component {
 public:
  virtual ~Component() = default;
  virtual void tick(Toy& toy, std::uint64_t now) = 0;
};

}  // namespace

struct Toy {
  int k = 0;
  std::uint32_t flows = 0;
  std::vector<std::unique_ptr<Component>> components;
  std::vector<std::array<Fifo, kPorts>> inputs;
  std::unordered_map<std::uint32_t, std::uint64_t> latency_by_flow;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

namespace {

int neighbour(int k, int node, int port) {
  const int x = node % k;
  const int y = node / k;
  switch (port) {
    case 0: return y > 0 ? node - k : -1;
    case 1: return x + 1 < k ? node + 1 : -1;
    case 2: return y + 1 < k ? node + k : -1;
    case 3: return x > 0 ? node - 1 : -1;
    default: return -1;
  }
}

/// The port a packet at `node` leaves by under XY routing (4 = eject).
int route(int k, int node, int dst) {
  const int dx = dst % k - node % k;
  const int dy = dst / k - node / k;
  if (dx > 0) return 1;
  if (dx < 0) return 3;
  if (dy > 0) return 2;
  if (dy < 0) return 0;
  return 4;
}

class Router : public Component {
 public:
  explicit Router(int node) : node_(node) {}
  void tick(Toy& toy, std::uint64_t now) override {
    auto& in = toy.inputs[static_cast<std::size_t>(node_)];
    for (int j = 0; j < kPorts; ++j) {
      const int port = (rr_ + j) % kPorts;
      if (in[port].empty()) continue;
      Packet p = in[port].pop();
      const int out = route(toy.k, node_, p.dst);
      if (out == 4) {
        toy.latency_by_flow[p.flow] += now - p.born + p.hops;
        ++toy.delivered;
        continue;
      }
      // The neighbour's input port facing this router.
      const int next_node = neighbour(toy.k, node_, out);
      Fifo& next = toy.inputs[static_cast<std::size_t>(next_node)][(out + 2) % 4];
      if (next.full()) {
        ++toy.dropped;
        continue;
      }
      ++p.hops;
      next.push(p);
    }
    rr_ = (rr_ + 1) % kPorts;
  }

 private:
  int node_;
  int rr_ = 0;
};

class Source : public Component {
 public:
  Source(int node, std::uint64_t seed) : node_(node), state_(seed) {}
  void tick(Toy& toy, std::uint64_t now) override {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    if ((state_ & 3) == 0) return;  // offers a packet 3 cycles in 4
    Fifo& local = toy.inputs[static_cast<std::size_t>(node_)][4];
    if (local.full()) {
      ++toy.dropped;
      return;
    }
    Packet p;
    p.flow = static_cast<std::uint32_t>(state_ >> 32) % toy.flows;
    p.dst = static_cast<std::uint16_t>((state_ >> 20) %
                                       static_cast<std::uint64_t>(toy.k * toy.k));
    p.born = now;
    local.push(p);
  }

 private:
  int node_;
  std::uint64_t state_;
};

}  // namespace

ReferenceWorkload::ReferenceWorkload(int k, std::uint32_t flows)
    : toy_(std::make_unique<Toy>()) {
  toy_->k = k;
  toy_->flows = flows;
  toy_->inputs.resize(static_cast<std::size_t>(k * k));
  for (int n = 0; n < k * k; ++n) {
    toy_->components.push_back(std::make_unique<Source>(
        n, 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(n)));
    toy_->components.push_back(std::make_unique<Router>(n));
  }
  // Every flow's counter exists from the start, inserted in a scrambled
  // order, so the map neither grows nor rehashes while it is timed and
  // its nodes lie scattered over the heap as if they had arrived by
  // chance.  `flows` is a power of two, so an odd stride visits each once.
  toy_->latency_by_flow.reserve(flows);
  for (std::uint32_t i = 0; i < flows; ++i) {
    toy_->latency_by_flow[(i * 0x9e3779b1u) & (flows - 1)] = 0;
  }
}

ReferenceWorkload::~ReferenceWorkload() = default;

void ReferenceWorkload::run(std::uint64_t cycles) {
  for (const std::uint64_t end = now_ + cycles; now_ < end; ++now_) {
    for (auto& c : toy_->components) c->tick(*toy_, now_);
  }
}

// A slice of 10 toy cycles takes 0.15-0.2 ms, under 2% of the 10 ms of
// simulator time between slices (main.cpp, kSliceEveryNs).
constexpr std::uint64_t kSliceCycles = 10;

SpeedProbe::SpeedProbe() : toy_(8, 1u << 14) {
  toy_.run(100);  // fills the FIFOs to their steady occupancy
}

double SpeedProbe::slice_ns() {
  const double start = thread_cpu_ns();
  toy_.run(kSliceCycles);
  return thread_cpu_ns() - start;
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
