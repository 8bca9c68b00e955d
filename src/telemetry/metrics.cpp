#include "telemetry/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "common/log.h"

namespace panic::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// --- MetricsSnapshot ---

namespace {
bool metric_values_equal(const MetricValue& a, const MetricValue& b) {
  return a.value == b.value && a.count == b.count && a.mean == b.mean &&
         a.min == b.min && a.max == b.max && a.p50 == b.p50 &&
         a.p90 == b.p90 && a.p99 == b.p99 && a.p999 == b.p999;
}

bool metric_value_is_zero(const MetricValue& v) {
  return v.value == 0.0 && v.count == 0;
}

/// Whether `v` carries anything beyond kind and value.
bool has_summary(const MetricValue& v) {
  return v.kind == MetricKind::kHistogram || v.count != 0 || v.mean != 0.0 ||
         v.min != 0 || v.max != 0 || v.p50 != 0 || v.p90 != 0 ||
         v.p99 != 0 || v.p999 != 0;
}
}  // namespace

void MetricsSnapshot::add(std::string_view name, const MetricValue& v) {
  names_ += name;
  Cell c;
  c.value = v.value;
  c.name_end = static_cast<std::uint32_t>(names_.size());
  c.kind = v.kind;
  if (has_summary(v)) {
    summaries_.push_back(v);
    summaries_.back().name.clear();
    c.summary = static_cast<std::uint32_t>(summaries_.size());
  }
  cells_.push_back(c);
}

std::string_view MetricsSnapshot::name(std::size_t i) const {
  const std::size_t begin = i == 0 ? 0 : cells_[i - 1].name_end;
  return std::string_view(names_).substr(begin, cells_[i].name_end - begin);
}

MetricValue MetricsSnapshot::unnamed(std::size_t i) const {
  const Cell& c = cells_[i];
  MetricValue v = c.summary != 0 ? summaries_[c.summary - 1] : MetricValue{};
  v.kind = c.kind;
  v.value = c.value;
  return v;
}

const std::vector<MetricValue>& MetricsSnapshot::entries() const {
  if (entries_.size() != cells_.size()) {
    entries_.clear();
    entries_.reserve(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      entries_.push_back(unnamed(i));
      entries_.back().name = name(i);
    }
  }
  return entries_;
}

std::size_t MetricsSnapshot::lookup(std::string_view name) const {
  const auto hash = [](std::string_view n) {
    return std::hash<std::string_view>{}(n);
  };
  if (slots_.empty()) {
    std::size_t size = 16;
    while (size < 2 * cells_.size()) size *= 2;
    slots_.assign(size, 0);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      std::size_t s = hash(this->name(i)) & (size - 1);
      while (slots_[s] != 0) s = (s + 1) & (size - 1);
      slots_[s] = static_cast<std::uint32_t>(i + 1);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash(name) & mask;; s = (s + 1) & mask) {
    const std::uint32_t e = slots_[s];
    if (e == 0) return kAbsent;
    if (this->name(e - 1) == name) return e - 1;
  }
}

bool MetricsSnapshot::has(const std::string& name) const {
  return lookup(name) != kAbsent;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  const std::size_t i = lookup(name);
  return i == kAbsent ? nullptr : &entries()[i];
}

const MetricValue& MetricsSnapshot::at(const std::string& name) const {
  const MetricValue* v = find(name);
  if (v == nullptr) {
    throw std::out_of_range("MetricsSnapshot: no metric named '" + name +
                            "'");
  }
  return *v;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  return static_cast<std::uint64_t>(value(name));
}

double MetricsSnapshot::value(const std::string& name) const {
  const std::size_t i = lookup(name);
  return i == kAbsent ? 0.0 : cells_[i].value;
}

double MetricsSnapshot::sum(const std::string& prefix,
                            const std::string& suffix) const {
  double total = 0.0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::string_view n = name(i);
    if (n.size() < prefix.size() + suffix.size()) continue;
    if (!n.starts_with(prefix) || !n.ends_with(suffix)) continue;
    total += cells_[i].value;
  }
  return total;
}

std::vector<std::string> MetricsSnapshot::diff_names(
    const MetricsSnapshot& other,
    const std::function<bool(const std::string&)>& exclude) const {
  std::vector<std::string> diff;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::string n(name(i));
    if (exclude && exclude(n)) continue;
    const MetricValue v = unnamed(i);
    const std::size_t j = other.lookup(n);
    const bool same = j != kAbsent ? metric_values_equal(v, other.unnamed(j))
                                   : metric_value_is_zero(v);
    if (!same) diff.push_back(n);
  }
  for (std::size_t j = 0; j < other.cells_.size(); ++j) {
    if (lookup(other.name(j)) != kAbsent) continue;  // handled above
    const std::string n(other.name(j));
    if (exclude && exclude(n)) continue;
    if (!metric_value_is_zero(other.unnamed(j))) diff.push_back(n);
  }
  return diff;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  std::vector<MetricValue> merged = entries();
  for (std::size_t j = 0; j < other.cells_.size(); ++j) {
    const MetricValue o = other.unnamed(j);
    const std::size_t i = lookup(other.name(j));
    if (i == kAbsent) {  // only in `other`: appended
      merged.push_back(o);
      merged.back().name = other.name(j);
      continue;
    }
    MetricValue& v = merged[i];
    if (v.count == 0 && v.value == 0.0) {  // fresh entry: copy wholesale
      std::string kept = std::move(v.name);
      v = o;
      v.name = std::move(kept);
      continue;
    }
    switch (o.kind) {
      case MetricKind::kCounter:
        v.value += o.value;
        break;
      case MetricKind::kGauge:
        v.value = o.value;  // latest sample wins
        break;
      case MetricKind::kHistogram: {
        const std::uint64_t n = v.count + o.count;
        if (n > 0) {
          v.mean = (v.mean * static_cast<double>(v.count) +
                    o.mean * static_cast<double>(o.count)) /
                   static_cast<double>(n);
        }
        v.min = v.count == 0 ? o.min
                             : (o.count == 0 ? v.min : std::min(v.min, o.min));
        v.max = std::max(v.max, o.max);
        // Quantiles of merged data are not recoverable from summaries;
        // keep the pessimistic (larger) of the two as an upper bound.
        v.p50 = std::max(v.p50, o.p50);
        v.p90 = std::max(v.p90, o.p90);
        v.p99 = std::max(v.p99, o.p99);
        v.p999 = std::max(v.p999, o.p999);
        v.count = n;
        v.value = static_cast<double>(n);
        break;
      }
    }
  }
  MetricsSnapshot out;
  for (const MetricValue& v : merged) out.add(v.name, v);
  *this = std::move(out);
}

std::string MetricsSnapshot::to_csv() const {
  std::string out = "name,kind,value,count,mean,min,max,p50,p90,p99,p999\n";
  char buf[256];
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const MetricValue v = unnamed(i);
    out += name(i);
    std::snprintf(buf, sizeof(buf),
                  ",%s,%.17g,%llu,%.17g,%llu,%llu,%llu,%llu,%llu,%llu\n",
                  to_string(v.kind), v.value,
                  static_cast<unsigned long long>(v.count), v.mean,
                  static_cast<unsigned long long>(v.min),
                  static_cast<unsigned long long>(v.max),
                  static_cast<unsigned long long>(v.p50),
                  static_cast<unsigned long long>(v.p90),
                  static_cast<unsigned long long>(v.p99),
                  static_cast<unsigned long long>(v.p999));
    out += buf;
  }
  return out;
}

bool MetricsSnapshot::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PANIC_WARN("telemetry", "cannot open %s for metrics snapshot",
               path.c_str());
    return false;
  }
  const std::string csv = to_csv();
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  std::fclose(f);
  if (!ok) PANIC_WARN("telemetry", "short write to %s", path.c_str());
  return ok;
}

// --- MetricsRegistry ---

bool MetricsRegistry::add(Entry e) {
  if (contains(e.name)) {
    PANIC_WARN("telemetry", "metric name collision: %s (first wins)",
               e.name.c_str());
    return false;
  }
  index_.emplace(e.name, entries_.size());
  entries_.push_back(std::move(e));
  return true;
}

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.kind != MetricKind::kCounter) {
      throw std::logic_error("MetricsRegistry: '" + name +
                             "' already registered as " +
                             to_string(e.kind));
    }
    return *e.cell;
  }
  owned_.push_back(0);
  claim_cell(&owned_.back(), name);
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.cell = &owned_.back();
  add(std::move(e));
  return owned_.back();
}

bool MetricsRegistry::claim_cell(const std::uint64_t* cell,
                                 const std::string& name) {
  const auto [it, inserted] = cell_owners_.emplace(cell, name);
  if (!inserted) {
    PANIC_WARN("telemetry",
               "counter cell of '%s' already published as '%s' — a cell "
               "must have exactly one writer (shard)",
               name.c_str(), it->second.c_str());
    assert(false && "counter cell published twice (two-shard writer?)");
    return false;
  }
  return true;
}

bool MetricsRegistry::expose_counter(const std::string& name,
                                     std::uint64_t* cell) {
  if (!claim_cell(cell, name)) return false;
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.cell = cell;
  return add(std::move(e));
}

bool MetricsRegistry::expose_counter_sum(const std::string& name,
                                         std::vector<std::uint64_t*> cells) {
  for (const std::uint64_t* c : cells) {
    if (!claim_cell(c, name)) return false;
  }
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.cells = std::move(cells);
  return add(std::move(e));
}

bool MetricsRegistry::expose_gauge(const std::string& name,
                                   std::function<double()> fn) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.gauge = std::move(fn);
  return add(std::move(e));
}

bool MetricsRegistry::expose_histogram(const std::string& name,
                                       Histogram* hist) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kHistogram;
  e.hist = hist;
  return add(std::move(e));
}

void MetricsRegistry::reset() {
  settle();
  for (Entry& e : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        if (e.cell != nullptr) *e.cell = 0;
        for (std::uint64_t* c : e.cells) *c = 0;
        break;
      case MetricKind::kHistogram: e.hist->reset(); break;
      case MetricKind::kGauge: break;  // read-only view
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  settle();
  MetricsSnapshot snap;
  std::size_t name_bytes = 0;
  for (const Entry& e : entries_) name_bytes += e.name.size();
  snap.names_.reserve(name_bytes);
  snap.cells_.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricValue v;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = e.cell != nullptr ? *e.cell : 0;
        for (const std::uint64_t* c : e.cells) total += *c;
        v.value = static_cast<double>(total);
        break;
      }
      case MetricKind::kGauge:
        v.value = e.gauge ? e.gauge() : 0.0;
        break;
      case MetricKind::kHistogram:
        v.count = e.hist->count();
        v.value = static_cast<double>(v.count);
        v.mean = e.hist->mean();
        v.min = e.hist->min();
        v.max = e.hist->max();
        v.p50 = e.hist->p50();
        v.p90 = e.hist->p90();
        v.p99 = e.hist->p99();
        v.p999 = e.hist->p999();
        break;
    }
    snap.add(e.name, v);
  }
  return snap;
}

}  // namespace panic::telemetry
