// RecoveryTracker: per-incident recovery-time telemetry (fault.recovery.*).
//
// An *incident* opens when a fault takes capacity away (an engine kill, or
// a watchdog-flagged stuck block) and closes when capacity is restored (a
// revive / spare activation, or the watchdog seeing progress again).  The
// tracker samples a delivered-message probe every `period` cycles — the
// same deterministic check-cycle pattern as the Watchdog, so the sampled
// cycles and values are bit-identical across both kernels — and
// derives, per incident:
//
//   * time-to-resteer:  incident open -> first sampling window in which
//     traffic flowed again at all (0-rate windows mean the NIC was hard
//     down; a seamless equivalence-group takeover re-steers within one
//     window);
//   * time-to-steady:   incident open -> first window whose delivered
//     count is back within 10% of the pre-incident window
//     (the recovery-time objective bench_recovery gates on);
//   * restore_cycles:   incident open -> the revive/spare that closed it;
//   * degraded_served:  messages delivered while any incident was open.
//
// The FaultInjector reports kill/revive/spare events; the Watchdog reports
// flag/recover transitions through its escalation hook.  All callbacks run
// in the serial event phase or serial tick phase, so the state needs no
// synchronization.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/component.h"

namespace panic::fault {

struct RecoveryConfig {
  Cycles period = 256;  ///< throughput sampling interval
};

class RecoveryTracker : public Component {
 public:
  explicit RecoveryTracker(RecoveryConfig config = {});

  /// Monotone delivered-message counter (e.g. DMA packets_to_host); must
  /// outlive the tracker's use.
  void set_throughput_probe(std::function<std::uint64_t()> delivered);

  /// A fault removed capacity at `now` (engine kill).  One open incident
  /// per source; duplicates while open are ignored.
  void on_incident(const std::string& source, Cycle now);

  /// Capacity came back at `now` (revive or spare activation).
  void on_restored(const std::string& source, Cycle now);

  /// Watchdog escalation: a probe was flagged stuck (flagged=true) or
  /// recovered (flagged=false).  Flags open incidents like kills do, so
  /// wedged-but-not-killed engines show up in fault.recovery.* too.
  void on_watchdog(const std::string& probe, Cycle now, bool flagged);

  void tick(Cycle now) override;
  Cycle next_wake(Cycle /*now*/) const override { return next_check_; }

  /// Publishes fault.recovery.{incidents,restored,watchdog_flags,
  /// degraded_served} counters, {open,unsteady} gauges and the
  /// {time_to_resteer,time_to_steady,restore_cycles} histograms.
  void register_telemetry(telemetry::Telemetry& t) override;

  std::uint64_t incidents() const { return incidents_; }
  std::uint64_t restored_count() const { return restored_; }
  std::uint64_t open_count() const;
  std::uint64_t unsteady_count() const;

 private:
  struct Incident {
    std::string source;
    Cycle opened_at = 0;
    std::uint64_t pre_window = 0;  ///< delivered count of the window before
    bool restored = false;
    bool resteered = false;
    bool steady = false;
  };

  Incident* find_open(const std::string& source);

  RecoveryConfig config_;
  Cycle next_check_;
  std::function<std::uint64_t()> delivered_;
  std::uint64_t last_delivered_ = 0;
  std::uint64_t last_window_ = 0;  ///< most recent completed window's count

  std::vector<Incident> incidents_log_;

  std::uint64_t incidents_ = 0;
  std::uint64_t restored_ = 0;
  std::uint64_t watchdog_flags_ = 0;
  std::uint64_t degraded_served_ = 0;
  Histogram time_to_resteer_;
  Histogram time_to_steady_;
  Histogram restore_cycles_;
};

}  // namespace panic::fault
