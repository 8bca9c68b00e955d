#include "fault/recovery.h"

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace panic::fault {

/// A window within (1 - kSteadyTolerance) of the pre-incident one is steady.
constexpr double kSteadyTolerance = 0.10;

RecoveryTracker::RecoveryTracker(RecoveryConfig config)
    : Component("recovery"), config_(config), next_check_(config.period) {
  if (config_.period == 0) config_.period = 1;
  if (next_check_ == 0) next_check_ = config_.period;
}

void RecoveryTracker::set_throughput_probe(
    std::function<std::uint64_t()> delivered) {
  delivered_ = std::move(delivered);
  last_delivered_ = delivered_ ? delivered_() : 0;
}

RecoveryTracker::Incident* RecoveryTracker::find_open(
    const std::string& source) {
  for (Incident& i : incidents_log_) {
    if (!i.restored && i.source == source) return &i;
  }
  return nullptr;
}

void RecoveryTracker::on_incident(const std::string& source, Cycle now) {
  if (find_open(source) != nullptr) return;  // already degraded
  Incident i;
  i.source = source;
  i.opened_at = now;
  i.pre_window = last_window_;
  incidents_log_.push_back(std::move(i));
  ++incidents_;
  PANIC_INFO("recovery", "incident open: %s @%llu (pre-window %llu)",
             source.c_str(), static_cast<unsigned long long>(now),
             static_cast<unsigned long long>(last_window_));
}

void RecoveryTracker::on_restored(const std::string& source, Cycle now) {
  Incident* i = find_open(source);
  if (i == nullptr) return;  // restore without a matching incident
  i->restored = true;
  restore_cycles_.record(now - i->opened_at);
  ++restored_;
  PANIC_INFO("recovery", "incident closed: %s @%llu (open %llu cycles)",
             source.c_str(), static_cast<unsigned long long>(now),
             static_cast<unsigned long long>(now - i->opened_at));
}

void RecoveryTracker::on_watchdog(const std::string& probe, Cycle now,
                                  bool flagged) {
  const std::string source = "watchdog:" + probe;
  if (flagged) {
    ++watchdog_flags_;
    on_incident(source, now);
  } else {
    on_restored(source, now);
  }
}

void RecoveryTracker::tick(Cycle now) {
  if (now < next_check_) return;  // strict mode ticks every cycle: no-op
  const std::uint64_t total = delivered_ ? delivered_() : 0;
  const std::uint64_t window = total - last_delivered_;
  last_delivered_ = total;

  bool any_open = false;
  for (Incident& i : incidents_log_) {
    if (!i.restored) any_open = true;
    if (now <= i.opened_at) continue;  // opened inside this window
    if (!i.resteered && window > 0) {
      i.resteered = true;
      time_to_resteer_.record(now - i.opened_at);
    }
    if (!i.steady) {
      // Integer floor keeps the comparison exact and kernel-identical.
      const auto floor = static_cast<std::uint64_t>(
          (1.0 - kSteadyTolerance) *
          static_cast<double>(i.pre_window));
      if (window >= floor) {
        i.steady = true;
        time_to_steady_.record(now - i.opened_at);
      }
    }
  }
  if (any_open) degraded_served_ += window;

  last_window_ = window;
  while (next_check_ <= now) next_check_ += config_.period;
}

std::uint64_t RecoveryTracker::open_count() const {
  std::uint64_t open = 0;
  for (const Incident& i : incidents_log_) open += i.restored ? 0 : 1;
  return open;
}

std::uint64_t RecoveryTracker::unsteady_count() const {
  std::uint64_t unsteady = 0;
  for (const Incident& i : incidents_log_) unsteady += i.steady ? 0 : 1;
  return unsteady;
}

void RecoveryTracker::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter("fault.recovery.incidents", &incidents_);
  m.expose_counter("fault.recovery.restored", &restored_);
  m.expose_counter("fault.recovery.watchdog_flags", &watchdog_flags_);
  m.expose_counter("fault.recovery.degraded_served", &degraded_served_);
  m.expose_gauge("fault.recovery.open",
                 [this] { return static_cast<double>(open_count()); });
  m.expose_gauge("fault.recovery.unsteady",
                 [this] { return static_cast<double>(unsteady_count()); });
  m.expose_histogram("fault.recovery.time_to_resteer", &time_to_resteer_);
  m.expose_histogram("fault.recovery.time_to_steady", &time_to_steady_);
  m.expose_histogram("fault.recovery.restore_cycles", &restore_cycles_);
}

}  // namespace panic::fault
