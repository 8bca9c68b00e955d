#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/log.h"

namespace panic::telemetry {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRmtClassify: return "rmt_classify";
    case TraceEventKind::kNocHop: return "noc_hop";
    case TraceEventKind::kEnqueue: return "enqueue";
    case TraceEventKind::kDequeue: return "dequeue";
    case TraceEventKind::kQueueDrop: return "queue_drop";
    case TraceEventKind::kServiceStart: return "service_start";
    case TraceEventKind::kServiceEnd: return "service_end";
    case TraceEventKind::kDrop: return "drop";
    case TraceEventKind::kEmit: return "emit";
    case TraceEventKind::kHostDeliver: return "host_deliver";
    case TraceEventKind::kTxWire: return "tx_wire";
    case TraceEventKind::kFault: return "fault";
  }
  return "?";
}

namespace {

/// The trace_event category an event kind belongs to.
const char* category(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRmtClassify: return "rmt";
    case TraceEventKind::kNocHop: return "noc";
    case TraceEventKind::kEnqueue:
    case TraceEventKind::kDequeue:
    case TraceEventKind::kQueueDrop: return "queue";
    case TraceEventKind::kServiceStart:
    case TraceEventKind::kServiceEnd: return "engine";
    case TraceEventKind::kDrop: return "drop";
    case TraceEventKind::kEmit: return "engine";
    case TraceEventKind::kHostDeliver: return "host";
    case TraceEventKind::kTxWire: return "wire";
    case TraceEventKind::kFault: return "fault";
  }
  return "?";
}

/// Name of the event's `arg` in the exported args dict.
const char* arg_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kEnqueue:
    case TraceEventKind::kDequeue:
    case TraceEventKind::kQueueDrop: return "slack";
    case TraceEventKind::kRmtClassify:
    case TraceEventKind::kNocHop:
    case TraceEventKind::kEmit: return "dst";
    case TraceEventKind::kServiceStart:
    case TraceEventKind::kServiceEnd: return "cycles";
    case TraceEventKind::kHostDeliver: return "latency";
    default: return "arg";
  }
}

}  // namespace

void MessageTracer::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, TraceEvent{});
  next_ = count_ = 0;
  recorded_ = dropped_ = 0;
  enabled_ = true;
}

void MessageTracer::clear() {
  next_ = count_ = 0;
  recorded_ = dropped_ = 0;
}

std::uint16_t MessageTracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::vector<TraceEvent> MessageTracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const std::size_t start = count_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string MessageTracer::to_chrome_json(Frequency clock) const {
  // Pre-render each event alongside its timestamp, then sort by time so
  // the emitted stream is monotonic (service "X" events start earlier
  // than the completion that records them).
  struct Line {
    double ts;
    std::uint64_t seq;  // stable tie-break: recording order
    std::string json;
  };
  std::vector<Line> lines;
  const auto evs = events();
  lines.reserve(evs.size());
  char buf[256];

  const double us_per_cycle = clock.cycles_to_ns(1) / 1e3;
  std::uint64_t seq = 0;
  for (const TraceEvent& e : evs) {
    Line line;
    line.seq = seq++;
    std::string& j = line.json;
    j += "{\"name\":\"";
    if (e.kind == TraceEventKind::kServiceEnd) {
      // Render the whole service window as one complete event.
      const Cycle start = e.arg <= e.cycle ? e.cycle - e.arg : 0;
      line.ts = static_cast<double>(start) * us_per_cycle;
      std::snprintf(buf, sizeof(buf),
                    "service\",\"ph\":\"X\",\"ts\":%.6f,\"dur\":%.6f",
                    line.ts,
                    static_cast<double>(e.cycle - start) * us_per_cycle);
      j += buf;
    } else {
      line.ts = static_cast<double>(e.cycle) * us_per_cycle;
      std::snprintf(buf, sizeof(buf),
                    "%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.6f",
                    to_string(e.kind), line.ts);
      j += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"%s\",\"pid\":1,\"tid\":%u,\"args\":{\"msg\":%llu,"
                  "\"%s\":%u}}",
                  category(e.kind), e.where,
                  static_cast<unsigned long long>(e.msg.value),
                  arg_name(e.kind), e.arg);
    j += buf;
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
  });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  // Track metadata: name each component's lane.
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"",
                  i);
    out += buf;
    append_json_escaped(out, names_[i]);
    out += "\"}}";
  }
  for (const Line& line : lines) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += line.json;
  }
  out += "\n]}\n";
  return out;
}

bool MessageTracer::write_chrome_json(const std::string& path,
                                      Frequency clock) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PANIC_WARN("telemetry", "cannot open %s for trace export", path.c_str());
    return false;
  }
  const std::string json = to_chrome_json(clock);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) PANIC_WARN("telemetry", "short write to %s", path.c_str());
  if (ok && dropped_ > 0) {
    PANIC_INFO("telemetry",
               "trace ring overflowed: %llu oldest events overwritten",
               static_cast<unsigned long long>(dropped_));
  }
  return ok;
}

}  // namespace panic::telemetry
