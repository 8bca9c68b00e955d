#include "engines/sched_queue.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"

namespace panic::engines {

namespace {
bool g_audit = false;
bool g_selftest_bug = false;
bool g_selftest_tiebug = false;
}  // namespace

void SchedulerQueue::set_audit(bool on) { g_audit = on; }
bool SchedulerQueue::audit_enabled() { return g_audit; }

void SchedulerQueue::set_selftest_bug(bool on) { g_selftest_bug = on; }
bool SchedulerQueue::selftest_bug() { return g_selftest_bug; }

void SchedulerQueue::set_selftest_tiebug(bool on) { g_selftest_tiebug = on; }
bool SchedulerQueue::selftest_tiebug() { return g_selftest_tiebug; }

SchedulerQueue::SchedulerQueue(const SchedSpec& spec, std::size_t capacity,
                               DropPolicy drop_policy)
    : spec_(spec),
      capacity_(capacity ? capacity : 1),
      drop_policy_(drop_policy) {
  std::string error;
  program_ = RankProgram::compile_spec(spec_, &error);
  if (program_ == nullptr) {
    // Scenario parsing validates rank programs up front; reaching this
    // means a caller built a bad SchedSpec in code.
    throw std::runtime_error("sched rank program: " + error);
  }
  // A program that compiles to a single trivial statement (`sched slack`
  // is `rank = slack`, `sched fifo` is `rank = 0`) skips the evaluator.
  if (program_->trivial_slack()) {
    fast_ = FastPath::kSlackField;
  } else if (program_->trivial_const(&const_rank_)) {
    fast_ = FastPath::kConst;
  } else {
    fast_ = FastPath::kProgram;
  }
  // The heap never exceeds the drop bound, so one up-front reservation
  // keeps enqueue/dequeue allocation-free for the queue's lifetime (the
  // default slack path never touches scratch_ or the state maps).
  items_.reserve(capacity_);
}

RankInputs SchedulerQueue::inputs_for(const Message& msg, Cycle now,
                                      std::uint64_t vtime) const {
  RankInputs in;
  in.slack = msg.slack;
  in.tenant = msg.tenant.value;
  in.bytes = msg.wire_size();
  in.now = now;
  in.created = msg.created_at;
  in.seq = next_seq_;
  in.vtime = vtime;
  in.weight = spec_.weight_for(msg.tenant.value);
  in.kind = static_cast<std::uint64_t>(msg.kind);
  return in;
}

std::uint64_t SchedulerQueue::compute_rank(const Message& msg, Cycle now) {
  switch (fast_) {
    case FastPath::kSlackField:
      return msg.slack;
    case FastPath::kConst:
      return const_rank_;
    case FastPath::kProgram:
      break;
  }
  ++rank_evals_;
  return program_->evaluate(inputs_for(msg, now, vtime_), state_, scratch_);
}

bool SchedulerQueue::try_enqueue(MessagePtr msg, Cycle now) {
  const Order order{selftest_tiebug()};
  const std::uint64_t rank = compute_rank(*msg, now);
  if (full() && drop_policy_ == DropPolicy::kEvictLoosest) {
    // Find the loosest (largest-rank, then youngest) queued message; if
    // its rank is larger than the arrival's, evict it to make room.
    // Linear scan: the heap only exposes the tightest element.  Under a
    // constant rank (`sched fifo`) nothing is looser than the arrival, so
    // evict degenerates to tail-drop.
    std::size_t loosest = items_.size();
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (loosest == items_.size() || order(items_[i], items_[loosest])) {
        loosest = i;
      }
    }
    if (loosest < items_.size() && items_[loosest].rank > rank) {
      trace(telemetry::TraceEventKind::kQueueDrop, now,
            *items_[loosest].msg);
      items_[loosest].msg->set_fate(MessageFate::kDropped);
      shadow_erase(items_[loosest].seq);
      items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(loosest));
      std::make_heap(items_.begin(), items_.end(), order);
      ++dropped_;
    }
  }
  if (full()) {
    trace(telemetry::TraceEventKind::kQueueDrop, now, *msg);
    msg->set_fate(MessageFate::kDropped);
    ++dropped_;
    PANIC_TRACE("sched", "queue full, dropping message %llu",
                static_cast<unsigned long long>(msg->id.value));
    // Dropped at admission: the rank program's pending state writes are
    // discarded — virtual finish times only advance for admitted traffic.
    return false;  // msg destroyed: the logical scheduler drops it
  }
  trace(telemetry::TraceEventKind::kEnqueue, now, *msg);
  if (g_audit) shadow_enqueue(*msg, now);
  if (fast_ == FastPath::kProgram && program_->stateful()) {
    program_->commit(state_, scratch_, msg->tenant.value);
  }
  items_.push_back(Item{std::move(msg), rank, next_seq_++, now});
  std::push_heap(items_.begin(), items_.end(), order);
  ++enqueued_;
  max_depth_ = std::max(max_depth_, items_.size());
  return true;
}

std::vector<MessagePtr> SchedulerQueue::evict_all() {
  std::vector<MessagePtr> out;
  out.reserve(items_.size());
  for (Item& item : items_) out.push_back(std::move(item.msg));
  items_.clear();
  shadow_.clear();
  return out;
}

MessagePtr SchedulerQueue::dequeue(Cycle now) {
  if (items_.empty()) return nullptr;
  const Order order{selftest_tiebug()};
  std::pop_heap(items_.begin(), items_.end(), order);
  Item item = std::move(items_.back());
  items_.pop_back();
  if (selftest_bug() && !items_.empty()) {
    // Planted off-by-one (see header): swap the true winner back into the
    // heap and hand out the second-best instead.
    std::pop_heap(items_.begin(), items_.end(), order);
    std::swap(item, items_.back());
    std::push_heap(items_.begin(), items_.end(), order);
  }
  if (g_audit) {
    // The dequeued message must be the (rank, seq) minimum of everything
    // left behind.  This re-derives the total order explicitly instead
    // of calling Order, so a bug planted INSIDE the comparator (the tie
    // bug) cannot hide from its own audit.
    for (const Item& rest : items_) {
      if (item.rank > rest.rank ||
          (item.rank == rest.rank && item.seq > rest.seq)) {
        ++audit_violations_;
        PANIC_WARN("sched",
                   "audit: dequeued msg %llu (rank=%llu seq=%llu) after "
                   "higher-priority msg %llu (rank=%llu seq=%llu)",
                   static_cast<unsigned long long>(item.msg->id.value),
                   static_cast<unsigned long long>(item.rank),
                   static_cast<unsigned long long>(item.seq),
                   static_cast<unsigned long long>(rest.msg->id.value),
                   static_cast<unsigned long long>(rest.rank),
                   static_cast<unsigned long long>(rest.seq));
        break;
      }
    }
    shadow_check_dequeue(item);
  }
  vtime_ = std::max(vtime_, item.rank);
  ++dequeued_;
  total_wait_ += now >= item.enqueued_at ? now - item.enqueued_at : 0;
  trace(telemetry::TraceEventKind::kDequeue, now, *item.msg);
  return std::move(item.msg);
}

void SchedulerQueue::shadow_enqueue(const Message& msg, Cycle now) {
  // Independent reference evaluation: same program text, interpreted
  // against the shadow's own state and virtual time — so a divergence in
  // the production path's fast paths or state handling shows up as a
  // rank mismatch at dequeue.
  const std::uint64_t ref_rank = program_->evaluate(
      inputs_for(msg, now, shadow_vtime_), shadow_state_, shadow_scratch_);
  if (program_->stateful()) {
    program_->commit(shadow_state_, shadow_scratch_, msg.tenant.value);
  }
  shadow_.push_back(ShadowItem{ref_rank, next_seq_});
}

void SchedulerQueue::shadow_erase(std::uint64_t seq) {
  for (std::size_t i = 0; i < shadow_.size(); ++i) {
    if (shadow_[i].seq == seq) {
      shadow_.erase(shadow_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void SchedulerQueue::shadow_check_dequeue(const Item& item) {
  std::size_t found = shadow_.size();
  std::size_t best = shadow_.size();
  for (std::size_t i = 0; i < shadow_.size(); ++i) {
    if (shadow_[i].seq == item.seq) found = i;
    if (best == shadow_.size() || shadow_[i].rank < shadow_[best].rank ||
        (shadow_[i].rank == shadow_[best].rank &&
         shadow_[i].seq < shadow_[best].seq)) {
      best = i;
    }
  }
  if (found == shadow_.size()) {
    // The audit was armed mid-life of this queue; the shadow never saw
    // this message, so its view is not comparable.  Start over.
    shadow_.clear();
    return;
  }
  // Only judge when the shadow mirrors the queue exactly (it held the
  // dequeued item plus everything still queued).
  if (shadow_.size() == items_.size() + 1 && best != found) {
    ++audit_violations_;
    PANIC_WARN("sched",
               "audit: reference rank program expected seq %llu "
               "(rank=%llu), queue dequeued seq %llu (rank=%llu)",
               static_cast<unsigned long long>(shadow_[best].seq),
               static_cast<unsigned long long>(shadow_[best].rank),
               static_cast<unsigned long long>(item.seq),
               static_cast<unsigned long long>(item.rank));
  }
  shadow_vtime_ = std::max(shadow_vtime_, shadow_[found].rank);
  shadow_.erase(shadow_.begin() + static_cast<std::ptrdiff_t>(found));
}

void SchedulerQueue::register_metrics(telemetry::MetricsRegistry& m,
                                      const std::string& prefix) {
  m.expose_counter(prefix + ".enqueued", &enqueued_);
  m.expose_counter(prefix + ".dequeued", &dequeued_);
  m.expose_counter(prefix + ".dropped", &dropped_);
  m.expose_counter(prefix + ".wait_cycles", &total_wait_);
  m.expose_counter(prefix + ".max_depth", &max_depth_);
  m.expose_counter(prefix + ".audit_violations", &audit_violations_);
  m.expose_gauge(prefix + ".depth",
                 [this] { return static_cast<double>(items_.size()); });
  if (fast_ == FastPath::kProgram) {
    // The sched.pifo.* family exists only where a rank program runs per
    // message; the slack-field and constant fast paths never touch it.
    m.expose_counter(prefix + ".pifo.rank_evals", &rank_evals_);
    m.expose_gauge(prefix + ".pifo.vtime",
                   [this] { return static_cast<double>(vtime_); });
    m.expose_gauge(prefix + ".pifo.flows", [this] {
      return static_cast<double>(state_.flows.size());
    });
  }
}

std::uint32_t SchedulerQueue::head_slack() const {
  return items_.empty() ? 0 : items_.front().msg->slack;
}

std::uint64_t SchedulerQueue::head_rank() const {
  return items_.empty() ? 0 : items_.front().rank;
}

}  // namespace panic::engines
