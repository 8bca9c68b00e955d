// MetricsRegistry: the unified stats surface of the simulator.
//
// Every component publishes its counters/gauges/histograms under a
// hierarchical dotted name ("engine.ipsec_rx.processed",
// "noc.router.3.flits") when it is registered with a Simulator
// (Component::register_telemetry).  Benches and examples read everything
// through one call — `sim.telemetry().snapshot()` — instead of the
// per-class getter zoo.
//
// Publication styles:
//
//   * expose_counter / expose_histogram — the component keeps its counter
//     as a plain member and hands the registry a pointer.  The hot path is
//     untouched (an ordinary `++member_`); the registry only reads the
//     cell at snapshot time.  This is how all simulator components
//     publish.
//   * expose_gauge — a sampled value computed on demand (queue depth,
//     aggregate sums).  The callback runs at snapshot time only.
//   * counter(name) — a registry-owned cell for callers with no natural
//     member to expose (benches, workload glue).  Returns a stable
//     `std::uint64_t&`; incrementing it is a single add, no locks, no
//     allocation.
//
// Collisions: the first registration of a name wins; later expose_* calls
// on the same name are rejected (returning false) and logged at kWarn.
// `counter(name)` is idempotent — the same name returns the same cell —
// but throws std::logic_error if the name is already bound to a different
// metric kind.  All of this is single-threaded, like the simulator.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.h"

namespace panic::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// One metric as captured by MetricsSnapshot.  `value` carries the counter
/// or gauge reading (for histograms, the recorded-sample count); the
/// remaining fields are only meaningful for histograms.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;

  // Histogram summary (kind == kHistogram only).
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

/// A point-in-time copy of every registered metric, detached from the
/// registry (safe to keep after the simulation is torn down).
///
/// Stored compactly: one buffer of names, a 24-byte cell per metric and a
/// summary per histogram, so capturing one allocates a few blocks and no
/// string per metric.  Whole `MetricValue` entries, names included, are
/// built by the first entries(), find() or at(); has(), value(),
/// counter() and sum() read the cells.  A 16x16 NIC publishes ~4.3k
/// metrics, and a caller that keeps a snapshot per run would otherwise
/// pin thousands of small strings and ~0.5 MB of entries per run, which
/// slows every later allocation-heavy build.  The entries and the lookup
/// index are caches filled by const calls, so a snapshot is
/// single-threaded, like the registry.
class MetricsSnapshot {
 public:
  /// Every entry, in registration order.
  const std::vector<MetricValue>& entries() const;
  bool has(const std::string& name) const;

  /// The entry for `name`, or nullptr.
  const MetricValue* find(const std::string& name) const;

  /// The entry for `name`; throws std::out_of_range when absent (catches
  /// bench typos loudly instead of silently reading zero).
  const MetricValue& at(const std::string& name) const;

  /// Counter/gauge value as an integer count; 0 when absent.
  std::uint64_t counter(const std::string& name) const;

  /// Counter/gauge value; 0.0 when absent.
  double value(const std::string& name) const;

  /// Sum of `value` over entries whose name starts with `prefix` and ends
  /// with `suffix` (either may be empty): e.g.
  /// sum("noc.router.", ".flits") totals flits across every router.
  double sum(const std::string& prefix, const std::string& suffix = "") const;

  /// Names of entries that differ between this snapshot and `other`,
  /// comparing value and (for histograms) the full summary
  /// (count/mean/min/max/p50/p90/p99/p999) exactly.  The comparison runs
  /// over the union of names: an entry present on only one side differs
  /// unless its value and count are both zero (absent == never touched).
  /// Names for which `exclude` returns true are skipped — the differential
  /// kernel oracle uses this to mask metrics that legitimately diverge
  /// between the dense and event kernels (kernel.component_ticks,
  /// kernel.alloc.*, ...).  Empty result == the snapshots agree.
  std::vector<std::string> diff_names(
      const MetricsSnapshot& other,
      const std::function<bool(const std::string&)>& exclude = {}) const;

  /// Merges `other` into this snapshot (parallel/windowed reduction):
  /// counters add, histogram summaries combine (count/min/max exact, mean
  /// weighted, quantiles upper-bounded by max of the two), and gauges take
  /// `other`'s sample (latest wins).  Entries only in `other` are appended.
  void merge(const MetricsSnapshot& other);

  /// CSV rendering: header + one row per metric,
  /// "name,kind,value,count,mean,min,max,p50,p90,p99,p999".
  std::string to_csv() const;

  /// Writes to_csv() to `path`; false (and a kWarn log) on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  friend class MetricsRegistry;

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// One metric without its name: what a counter or gauge needs, plus the
  /// position of a histogram's summary.
  struct Cell {
    double value = 0.0;
    std::uint32_t name_end = 0;  ///< where the name ends in names_
    std::uint32_t summary = 0;   ///< 1 + index into summaries_; 0 = none
    MetricKind kind = MetricKind::kCounter;
  };

  /// Appends an entry; `name` must not be present yet.
  void add(std::string_view name, const MetricValue& v);
  std::string_view name(std::size_t i) const;
  /// Entry i with an empty name (allocates nothing).
  MetricValue unnamed(std::size_t i) const;
  /// Index of the entry named `name`, or kAbsent.
  std::size_t lookup(std::string_view name) const;

  std::string names_;  ///< every name, concatenated
  std::vector<Cell> cells_;
  std::vector<MetricValue> summaries_;  ///< unnamed, one per histogram
  /// Caches: the named entries, and an open-addressing index over the
  /// names built by the first lookup (entry + 1 per slot, 0 = empty; a
  /// power of two at least twice the entry count).
  mutable std::vector<MetricValue> entries_;
  mutable std::vector<std::uint32_t> slots_;
};

class MetricsRegistry {
 public:
  /// Returns the registry-owned counter cell for `name`, creating it on
  /// first use.  The reference is stable for the registry's lifetime.
  std::uint64_t& counter(const std::string& name);

  /// Publishes an externally-owned counter cell.  The pointee must outlive
  /// the registry (components outlive the simulator run by contract).
  bool expose_counter(const std::string& name, std::uint64_t* cell);

  /// Publishes one counter backed by several externally-owned cells,
  /// summed at snapshot time (and each zeroed by reset()).  This is the
  /// sharded-publication contract of the parallel kernel: every cell has
  /// exactly ONE writer — a shard thread or the coordinator — so the hot
  /// path stays a plain `++cell` with no shared atomics; the registry only
  /// reads the cells at snapshot/reset time, when the workers are parked
  /// at the cycle barrier.  Registering the same cell address under two
  /// metrics (which would mean two shards publish — and therefore write —
  /// one cell) is rejected and asserts in debug builds.
  bool expose_counter_sum(const std::string& name,
                          std::vector<std::uint64_t*> cells);

  /// Publishes a sampled value; `fn` runs at snapshot time.
  bool expose_gauge(const std::string& name, std::function<double()> fn);

  /// Publishes an externally-owned histogram.
  bool expose_histogram(const std::string& name, Histogram* hist);

  bool contains(const std::string& name) const {
    return index_.find(name) != index_.end();
  }
  std::size_t size() const { return entries_.size(); }

  /// Zeroes every counter (owned and exposed) and resets every histogram;
  /// gauges are read-only views and are left alone.  Used by benches to
  /// start a measurement window after warm-up.
  void reset();

  /// Captures every metric.  Entries appear in registration order.
  MetricsSnapshot snapshot() const;

  /// Registers `fn` to run first in every snapshot() and reset(): a
  /// component whose exposed counters may lag the clock (the NoC settles
  /// the flits its wormhole trains carried) brings them up to date there.
  void add_settle_hook(std::function<void()> fn) {
    settle_hooks_.push_back(std::move(fn));
  }

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::uint64_t* cell = nullptr;        // kCounter, single cell
    std::vector<std::uint64_t*> cells;    // kCounter, per-shard cells (sum)
    std::function<double()> gauge;        // kGauge
    Histogram* hist = nullptr;            // kHistogram
  };

  /// Registers `e` under its name; false on collision (first wins).
  bool add(Entry e);

  /// Records counter-cell ownership; false (plus kWarn and a debug assert)
  /// when `cell` is already published under another metric.
  bool claim_cell(const std::uint64_t* cell, const std::string& name);

  void settle() const {
    for (const auto& fn : settle_hooks_) fn();
  }

  std::vector<std::function<void()>> settle_hooks_;
  std::deque<std::uint64_t> owned_;  // stable cells for counter(name)
  std::vector<Entry> entries_;       // registration order
  std::unordered_map<std::string, std::size_t> index_;
  /// Every published counter cell, for the single-writer check.
  std::unordered_map<const std::uint64_t*, std::string> cell_owners_;
};

}  // namespace panic::telemetry
