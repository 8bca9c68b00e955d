#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::begin(std::string name, int run) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run;
  s.start = Clock::now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost-first");
  }
  spans_[index].end = Clock::now();
  open_.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += ns_between(s.start, s.end);
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = ns_between(spans_[i].start, spans_[i].end);
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // trace_event timestamps are microseconds.
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"run\": %d}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.run,
                 ns_between(origin_, s.start) / 1e3,
                 ns_between(s.start, s.end) / 1e3, i, s.parent, s.run);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
