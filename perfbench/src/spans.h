// In-memory host-time spans for the traced benchmark run.
//
// Each span has a name, a start and end on std::chrono::steady_clock, the
// span that encloses it, and a run id (the repetition it belongs to; layer
// drives use their own ids).  Spans are kept in memory while the run
// executes and written once at exit, as Chrome trace_event JSON (the same
// format MessageTracer exports; open in chrome://tracing or
// https://ui.perfetto.dev) and as a per-name self-time summary.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index into SpanRecorder::spans(), -1 for roots
  int run = 0;
};

/// Per-name totals computed from the recorded spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< total minus the time its child spans cover
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int begin(std::string name, int run);
  /// Closes span `index`, which must be the innermost open span.
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals keyed by span name.  Children of one span never overlap (the
  /// recorder is single-threaded and strictly nested), so self time is
  /// the duration minus the sum of the direct children's durations.
  std::map<std::string, SpanTotals> totals() const;

  /// Chrome trace_event JSON: one complete ("X") event per span, one
  /// track per run id.  Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point origin_ = Clock::now();
};

/// Opens a span for the lifetime of the scope.  A null recorder records
/// nothing, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int run)
      : rec_(rec), index_(rec != nullptr ? rec->begin(name, run) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench
