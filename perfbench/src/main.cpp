// panic_perfbench — the measuring half of the simulator benchmark
// (perfbench/run.py builds it, prepares the scenario and checks results).
//
//   panic_perfbench measure <scenario> --seconds S [--trace-out <base>]
//                   [--result-out <file>] [--plant ledger|result]
//   panic_perfbench result <scenario> [--mode dense|event] [--budget N]
//
// `measure` repeats the scenario in one process until S seconds have
// passed (at least kMinReps times).  Each repetition is what a `panic_run`
// user waits for: load and parse the file, build the ScenarioRun, run the
// warmup and the measured window under the default (event) kernel, and
// produce the result JSON.  The message pool is trimmed before each
// repetition, so every one pays the set-up a fresh process pays, and
// repetitions rotate over the allowed CPUs.  Untraced repetitions run
// the measured window in slices of kSliceEveryNs of simulator CPU time,
// each followed by a slice of the reference workload (reference.h).  It
// prints one JSON line with the end-to-end metrics (host times are thread
// CPU time scaled to a fixed host speed, median over the repetitions; see
// speed_factor() and host_time()) and the repetitions attempted and
// failed.
// A repetition fails when its conservation ledger is not conserved or its
// result JSON (minus the kernel-dependent "runner" line) differs from the
// first one's.
//
// With --trace-out, odd repetitions are traced (the measured window is
// split into fixed sim().run(W) windows inside host-time spans; counter
// deltas are read outside the spans), then every layer is driven alone;
// the line carries the per-layer metrics instead, and the spans are
// written to <base>.trace.json (Chrome trace_event) and a self-time
// summary to <base>.summary.json.
//
// --plant fakes a lost message in every ledger report, or a changed result
// after the first repetition, so that the self-test can show that such a
// repetition is counted as failed.
//
// `result` runs the scenario once and prints its result JSON; it exits 3
// when the ledger is not conserved.  run.py uses it for the dense-vs-event
// cross-check and the self-test.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "layers.h"
#include "reference.h"
#include "net/conservation.h"
#include "net/message_pool.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "spans.h"

namespace {

using namespace panic;
using perfbench::Clock;
using perfbench::ns_between;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using perfbench::SpeedProbe;
using perfbench::thread_cpu_ns;
using scenario::Scenario;
using scenario::ScenarioRun;

constexpr int kMinReps = 5;
constexpr int kMaxReps = 1000;
/// Cycles per step of the measured window: small enough that every traced
/// repetition yields hundreds of windows for the window-time percentiles,
/// and that reference slices fall close to every kSliceEveryNs.
constexpr Cycles kWindowCycles = 1024;
/// Simulator CPU time between two reference slices in an untraced
/// repetition, checked after every kWindowCycles.
constexpr double kSliceEveryNs = 10e6;

std::string strip_runner_line(const std::string& json) {
  std::string out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t nl = json.find('\n', pos);
    if (nl == std::string::npos) nl = json.size() - 1;
    const std::string line = json.substr(pos, nl - pos + 1);
    if (line.find("\"runner\"") == std::string::npos) out += line;
    pos = nl + 1;
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A run's host time from its repetitions: their median, which unlike
/// the fastest repetition does not depend on whether the run happened to
/// catch a quiet moment.
double host_time(const std::vector<double>& reps) {
  return quantile(reps, 0.5);
}

/// The CPUs this process may run on, as given at start-up.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins repetition `rep` to the next allowed CPU in turn, so that a run
/// samples every vCPU instead of the one the scheduler left it on.
/// Without affinity control the scheduler's placement stands.
void pin_for_rep(const std::vector<int>& cpus, int rep) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>(rep) % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Delivered work: packets the DMA engine wrote to the host plus frames
/// sent out of the Ethernet ports.
struct Delivered {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

Delivered delivered(core::PanicNic& nic) {
  Delivered d;
  d.msgs = nic.dma().packets_to_host();
  d.bytes = nic.host_memory().bytes_written();
  for (int i = 0; i < nic.num_eth_ports(); ++i) {
    d.msgs += nic.eth_port(i).tx_meter().packets();
    d.bytes += nic.eth_port(i).tx_meter().bytes();
  }
  return d;
}

/// Kernel and pool counters read between traced windows.
struct KernelCounters {
  std::uint64_t ticks = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t events = 0;
  std::uint64_t fast_forwarded = 0;
  std::uint64_t pool_misses = 0;

  static KernelCounters read(const Simulator& sim) {
    KernelCounters k;
    k.ticks = sim.component_ticks();
    k.wakeups = sim.wakeups();
    k.events = sim.events_executed();
    k.fast_forwarded = sim.fast_forwarded_cycles();
    k.pool_misses = MessagePool::instance().stats().pool_misses;
    return k;
  }
  KernelCounters operator-(const KernelCounters& o) const {
    return {ticks - o.ticks, wakeups - o.wakeups, events - o.events,
            fast_forwarded - o.fast_forwarded, pool_misses - o.pool_misses};
  }
};

struct Rep {
  double load_ns = 0.0;
  double build_ns = 0.0;
  double measure_ns = 0.0;
  double setup_cpu_ns = 0.0;    ///< thread CPU time of load + build
  double measure_cpu_ns = 0.0;  ///< thread CPU time of the measured window
  double run_cpu_ns = 0.0;      ///< thread CPU time, load -> result JSON
  double reference_ns = 0.0;    ///< thread CPU time of the reference slices
  int slices = 0;               ///< reference slices (untraced reps only)
  double snapshot_ns = 0.0;
  double result_json_ns = 0.0;
  Cycles cycles = 0;
  Delivered window;      ///< delivered during the measured window
  KernelCounters kernel;  ///< measured-window deltas
  std::uint64_t pool_live_high_watermark = 0;  ///< process-wide, so far
  ConservationLedger::Report ledger;
  std::string result;  ///< result JSON minus the "runner" line
  telemetry::MetricsSnapshot before;  ///< traced reps: at window start
  telemetry::MetricsSnapshot after;   ///< final snapshot
  std::vector<double> window_ns_per_cycle;
  std::uint64_t rmt_passes = 0;  ///< measured-window delta
  /// Process max RSS once this repetition is done.  The first
  /// repetition's is a fresh process's footprint; later ones add
  /// allocator fragmentation that grows with the repetition count.
  double peak_rss_mb = 0.0;
};

/// Runs the measured window of an untraced repetition, with a reference
/// slice after every kSliceEveryNs of simulator CPU time and at the end.
void measure_with_probe(Simulator& sim, Cycles budget, SpeedProbe& probe,
                        Rep& r) {
  double since_slice = 0.0;
  for (Cycles left = budget; left > 0;) {
    const Cycles w = std::min(left, kWindowCycles);
    const double t = thread_cpu_ns();
    sim.run(w);
    const double ns = thread_cpu_ns() - t;
    r.measure_cpu_ns += ns;
    since_slice += ns;
    left -= w;
    if (since_slice >= kSliceEveryNs || left == 0) {
      r.reference_ns += probe.slice_ns();
      ++r.slices;
      since_slice = 0.0;
    }
  }
}

/// One repetition.  `rec` null = untraced, and then `probe` is non-null.
/// The last ScenarioRun is handed back through `keep` (when non-null)
/// for the layer drives.
Rep run_rep(const std::string& path, SpanRecorder* rec, SpeedProbe* probe,
            int run_id, std::unique_ptr<ScenarioRun>* keep) {
  MessagePool::instance().trim();
  ConservationLedger::instance().reset();
  Rep r;
  ScopedSpan rep_span(rec, "rep", run_id);
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_ns();
  std::optional<Scenario> s;
  {
    ScopedSpan span(rec, "scenario.load", run_id);
    std::string error;
    s = Scenario::load(path, &error);
    if (!s.has_value()) throw std::runtime_error(path + ": " + error);
  }
  const auto t1 = Clock::now();
  std::unique_ptr<ScenarioRun> run;
  {
    ScopedSpan span(rec, "core.build", run_id);
    run = std::make_unique<ScenarioRun>(*s, scenario::RunOptions{});
  }
  const auto t2 = Clock::now();
  r.setup_cpu_ns = thread_cpu_ns() - cpu0;
  {
    ScopedSpan span(rec, "sim.warmup", run_id);
    run->run_warmup();
  }
  Simulator& sim = run->sim();
  core::PanicNic& nic = run->nic();
  if (rec != nullptr) r.before = sim.snapshot();
  const Delivered d0 = delivered(nic);
  const KernelCounters k0 = KernelCounters::read(sim);
  const std::uint64_t passes0 = nic.total_rmt_passes();
  const Cycle c0 = sim.now();
  const auto t3 = Clock::now();
  const double cpu3 = thread_cpu_ns();
  if (rec == nullptr) {
    measure_with_probe(sim, s->budget_cycles, *probe, r);
  } else {
    ScopedSpan span(rec, "sim.measure", run_id);
    Cycles left = s->budget_cycles;
    while (left > 0) {
      const Cycles w = std::min(left, kWindowCycles);
      const auto w0 = Clock::now();
      {
        ScopedSpan window(rec, "sim.run", run_id);
        sim.run(w);
      }
      r.window_ns_per_cycle.push_back(ns_between(w0, Clock::now()) /
                                      static_cast<double>(w));
      left -= w;
    }
  }
  const auto t4 = Clock::now();
  if (rec != nullptr) r.measure_cpu_ns = thread_cpu_ns() - cpu3;
  r.cycles = sim.now() - c0;
  r.kernel = KernelCounters::read(sim) - k0;
  r.rmt_passes = nic.total_rmt_passes() - passes0;
  const Delivered d1 = delivered(nic);
  r.window = {d1.msgs - d0.msgs, d1.bytes - d0.bytes};
  if (rec != nullptr) {
    ScopedSpan span(rec, "telemetry.snapshot", run_id);
    const auto t = Clock::now();
    r.after = sim.snapshot();
    r.snapshot_ns = ns_between(t, Clock::now());
  }
  const auto t5 = Clock::now();
  std::string json;
  {
    ScopedSpan span(rec, "telemetry.result_json", run_id);
    json = run->result_json();
  }
  const auto t6 = Clock::now();
  r.run_cpu_ns = thread_cpu_ns() - cpu0 - r.reference_ns;
  // A panic_run user waits for the result JSON only; the benchmark's own
  // snapshot is kept out of the run time.
  if (rec == nullptr) r.after = sim.snapshot();
  r.ledger = ConservationLedger::instance().report();
  r.pool_live_high_watermark =
      MessagePool::instance().stats().live_high_watermark;
  r.load_ns = ns_between(t0, t1);
  r.build_ns = ns_between(t1, t2);
  r.measure_ns = ns_between(t3, t4);
  r.result_json_ns = ns_between(t5, t6);
  r.result = strip_runner_line(json);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (keep != nullptr) *keep = std::move(run);
  return r;
}

// --- Output. ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_line(int attempted, int failed,
                const std::vector<std::string>& failures,
                const std::vector<Metric>& metrics) {
  std::printf("{\"attempted\": %d, \"failed\": %d, \"failures\": [",
              attempted, failed);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", failures[i].c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Sum over snapshot entries named <prefix>*<suffix>, as a window delta.
double delta_sum(const Rep& r, const std::string& prefix,
                 const std::string& suffix) {
  return r.after.sum(prefix, suffix) - r.before.sum(prefix, suffix);
}
double delta(const Rep& r, const std::string& name) {
  return r.after.value(name) - r.before.value(name);
}

/// How many times slower than on the quiet machine the host ran the
/// simulator during the repetition, estimated from its reference slices
/// (reference.h).  A repetition's thread CPU times divided by it are host
/// times at a fixed host speed: the quiet machine's.
double speed_factor(const Rep& r) {
  return std::pow(r.reference_ns / r.slices / SpeedProbe::kQuietSliceNs,
                  SpeedProbe::kSensitivity);
}

std::vector<Metric> end_to_end_metrics(const Scenario& s,
                                       const std::vector<Rep>& reps) {
  std::vector<double> ns_cycle, ns_msg, setup, run;
  for (const Rep& r : reps) {
    const double f = speed_factor(r);
    ns_cycle.push_back(r.measure_cpu_ns / f / static_cast<double>(r.cycles));
    ns_msg.push_back(ratio(r.measure_cpu_ns / f, static_cast<double>(r.window.msgs)));
    setup.push_back(r.setup_cpu_ns / f / 1e9);
    run.push_back(r.run_cpu_ns / f / 1e9);
  }
  const Rep& last = reps.back();
  const double sim_seconds =
      static_cast<double>(last.cycles) / (s.freq_mhz * 1e6);
  const telemetry::MetricValue* p99 =
      last.after.find("engine.dma.host_latency.tenant.1");
  return {
      {"host_ns_per_cycle", host_time(ns_cycle), "ns"},
      {"host_ns_per_msg", host_time(ns_msg), "ns"},
      {"setup_s", host_time(setup), "s"},
      {"run_s", host_time(run), "s"},
      {"peak_rss_mb", reps.front().peak_rss_mb, "MB"},
      {"sim_goodput_gbps",
       static_cast<double>(last.window.bytes) * 8.0 / sim_seconds / 1e9,
       "Gb/s"},
      {"sim_p99_us",
       p99 == nullptr ? 0.0 : static_cast<double>(p99->p99) / s.freq_mhz,
       "us"},
  };
}

/// Engine and RMT scheduler queues: "<component>.queue.<counter>".
double queue_sum(const Rep& r, const std::string& counter) {
  return delta_sum(r, "engine.", ".queue." + counter) +
         delta_sum(r, "rmt.", ".queue." + counter);
}

std::vector<Metric> per_layer_metrics(const std::vector<Rep>& traced,
                                      const std::vector<Rep>& untraced,
                                      const perfbench::LayerCosts& costs,
                                      const SpanRecorder& rec) {
  std::vector<double> load, build, snap, json, ns_tick, traced_ns_cycle,
      untraced_ns_cycle, windows;
  for (const Rep& r : traced) {
    load.push_back(r.load_ns / 1e6);
    build.push_back(r.build_ns / 1e6);
    snap.push_back(r.snapshot_ns / 1e6);
    json.push_back(r.result_json_ns / 1e6);
    ns_tick.push_back(ratio(r.measure_ns, static_cast<double>(r.kernel.ticks)));
    traced_ns_cycle.push_back(r.measure_cpu_ns / static_cast<double>(r.cycles));
    windows.insert(windows.end(), r.window_ns_per_cycle.begin(),
                   r.window_ns_per_cycle.end());
  }
  for (const Rep& r : untraced) {
    untraced_ns_cycle.push_back(r.measure_cpu_ns / static_cast<double>(r.cycles));
  }
  // Simulated counts repeat exactly across repetitions; read the last.
  const Rep& r = traced.back();
  const double cycles = static_cast<double>(r.cycles);
  const double hits = delta_sum(r, "rmt.cache.", ".hits");
  const double misses = delta_sum(r, "rmt.cache.", ".misses");
  const double dropped = queue_sum(r, "dropped");
  std::uint64_t lost = 0;
  for (const Rep& x : traced) lost = std::max(lost, x.ledger.lost);
  for (const Rep& x : untraced) lost = std::max(lost, x.ledger.lost);

  const auto totals = rec.totals();
  const auto measure = totals.find("sim.measure");
  const double unattributed =
      measure == totals.end()
          ? 0.0
          : 100.0 * ratio(measure->second.self_ns, measure->second.total_ns);

  return {
      {"scenario.load_ms", host_time(load), "ms"},
      {"core.build_ms", host_time(build), "ms"},
      {"sim.ticks_per_cycle", ratio(static_cast<double>(r.kernel.ticks), cycles), "ticks/cycle"},
      {"sim.wakeups_per_kcycle", 1000.0 * ratio(static_cast<double>(r.kernel.wakeups), cycles), "1/kcycle"},
      {"sim.events", static_cast<double>(r.kernel.events), "count"},
      {"sim.fast_forward_share", ratio(static_cast<double>(r.kernel.fast_forwarded), cycles), "ratio"},
      {"sim.ns_per_tick", host_time(ns_tick), "ns"},
      {"sim.window_ns_per_cycle_p50", quantile(windows, 0.50), "ns"},
      {"sim.window_ns_per_cycle_p99", quantile(windows, 0.99), "ns"},
      {"noc.flits_per_cycle", ratio(delta(r, "noc.flits_routed"), cycles), "flits/cycle"},
      {"noc.stall_cycles", delta_sum(r, "noc.router.", ".stall_cycles"), "count"},
      {"noc.ns_per_flit", costs.noc_ns_per_flit, "ns"},
      {"rmt.passes_per_kcycle", 1000.0 * ratio(static_cast<double>(r.rmt_passes), cycles), "1/kcycle"},
      {"rmt.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"rmt.ns_per_pass", costs.rmt_ns_per_pass, "ns"},
      {"engines.sched.ns_per_op", costs.sched_ns_per_op, "ns"},
      {"engines.sched.rank_evals", queue_sum(r, "pifo.rank_evals"), "count"},
      {"engines.ipsec.ns_per_byte", costs.ipsec_ns_per_byte, "ns"},
      {"engines.compression.ns_per_byte", costs.compression_ns_per_byte, "ns"},
      {"engines.dma.busy_share", ratio(delta(r, "engine.dma.busy_cycles"), cycles), "ratio"},
      {"engines.compression.busy_share", ratio(delta(r, "engine.compression.busy_cycles"), cycles), "ratio"},
      {"engines.ipsec_rx.busy_share", ratio(delta(r, "engine.ipsec_rx.busy_cycles"), cycles), "ratio"},
      {"engines.queue.drop_ratio", ratio(dropped, queue_sum(r, "enqueued") + dropped), "ratio"},
      {"engines.queue.wait_cycles_mean", ratio(queue_sum(r, "wait_cycles"), queue_sum(r, "dequeued")), "cycles"},
      {"workload.ns_per_frame", costs.workload_ns_per_frame, "ns"},
      {"net.pool_misses", static_cast<double>(r.kernel.pool_misses), "count"},
      {"net.pool_live_high_watermark", static_cast<double>(r.pool_live_high_watermark), "count"},
      {"net.ledger_lost", static_cast<double>(lost), "count"},
      {"telemetry.snapshot_ms", host_time(snap), "ms"},
      {"telemetry.result_json_ms", host_time(json), "ms"},
      {"trace.overhead_pct", 100.0 * (ratio(host_time(traced_ns_cycle), host_time(untraced_ns_cycle)) - 1.0), "%"},
      {"trace.unattributed_pct", unattributed, "%"},
  };
}

/// The layer (src/ module) a span's self time is charged to.
std::string layer_of(const std::string& span) {
  if (span == "rep") return "bench";
  const std::size_t dot = span.find('.');
  return dot == std::string::npos ? span : span.substr(0, dot);
}

bool write_summary(const std::string& path, const SpanRecorder& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto totals = rec.totals();
  std::map<std::string, double> layer_self;
  double all_self = 0.0;
  for (const auto& [name, t] : totals) {
    layer_self[layer_of(name)] += t.self_ns;
    all_self += t.self_ns;
  }
  std::fputs("{\n  \"spans\": {\n", f);
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::fprintf(f,
                 "%s    \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                 t.self_ns / 1e6);
    first = false;
  }
  std::fputs("\n  },\n  \"layers_self\": {\n", f);
  first = true;
  for (const auto& [layer, ns] : layer_self) {
    std::fprintf(f, "%s    \"%s\": {\"self_ms\": %.6f, \"share\": %.6f}",
                 first ? "" : ",\n", layer.c_str(), ns / 1e6,
                 ratio(ns, all_self));
    first = false;
  }
  std::fputs("\n  }\n}\n", f);
  return std::fclose(f) == 0;
}

// --- Commands. ---

struct Args {
  std::string command;
  std::string scenario;
  double seconds = 10.0;
  std::string trace_out;
  std::string result_out;
  std::string mode = "event";
  Cycles budget = 0;
  std::string plant;
};

int usage() {
  std::fprintf(stderr,
               "usage: panic_perfbench measure <scenario> --seconds S "
               "[--trace-out BASE] [--result-out FILE] "
               "[--plant ledger|result]\n"
               "       panic_perfbench result <scenario> [--mode dense|event] "
               "[--budget N]\n");
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 3) return std::nullopt;
  Args a;
  a.command = argv[1];
  a.scenario = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--budget") {
      a.budget = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--result-out") {
      a.result_out = value;
    } else if (key == "--mode") {
      a.mode = value;
    } else if (key == "--plant") {
      a.plant = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if ((argc - 3) % 2 != 0) return std::nullopt;
  return a;
}

int cmd_measure(const Args& a) {
  const bool traced = !a.trace_out.empty();
  SpanRecorder rec;
  std::vector<Rep> traced_reps;
  std::vector<Rep> untraced_reps;
  std::vector<std::string> failures;
  std::string reference;
  std::unique_ptr<ScenarioRun> last;
  int attempted = 0;
  int failed = 0;
  const std::vector<int> cpus = allowed_cpus();
  SpeedProbe probe;
  const auto start = Clock::now();
  // Traced runs alternate untraced and traced repetitions so that the
  // tracing overhead is measured under the same machine conditions.
  while (attempted < kMaxReps &&
         (attempted < kMinReps + (traced ? 1 : 0) ||
          ns_between(start, Clock::now()) < a.seconds * 1e9)) {
    const bool trace_this = traced && attempted % 2 == 1;
    pin_for_rep(cpus, traced ? attempted / 2 : attempted);
    Rep r = run_rep(a.scenario, trace_this ? &rec : nullptr,
                    trace_this ? nullptr : &probe, attempted,
                    trace_this ? &last : nullptr);
    ++attempted;
    if (a.plant == "ledger") ++r.ledger.lost;
    if (a.plant == "result" && attempted > 1) r.result += " ";
    std::string why;
    if (!r.ledger.conserved()) {
      why = "ledger not conserved (" + r.ledger.to_string() + ")";
    } else if (reference.empty()) {
      reference = r.result;
      if (!a.result_out.empty()) {
        std::FILE* f = std::fopen(a.result_out.c_str(), "w");
        if (f == nullptr || std::fputs(reference.c_str(), f) < 0 ||
            std::fclose(f) != 0) {
          why = "cannot write " + a.result_out;
        }
      }
    } else if (r.result != reference) {
      why = "result differs from the first repetition";
    }
    if (!why.empty()) {
      ++failed;
      failures.push_back("rep " + std::to_string(attempted - 1) + ": " + why);
    }
    (trace_this ? traced_reps : untraced_reps).push_back(std::move(r));
  }

  const std::optional<Scenario> s = Scenario::load(a.scenario);
  if (!traced) {
    print_line(attempted, failed, failures,
               end_to_end_metrics(*s, untraced_reps));
    return 0;
  }
  const Rep& lr = traced_reps.back();
  const perfbench::LayerCosts costs = perfbench::drive_layers(
      *s, last->nic(), lr.after, last->sim().now(), rec, attempted);
  const std::vector<Metric> metrics =
      per_layer_metrics(traced_reps, untraced_reps, costs, rec);
  if (!rec.write_chrome_json(a.trace_out + ".trace.json") ||
      !write_summary(a.trace_out + ".summary.json", rec)) {
    ++failed;
    failures.push_back("cannot write " + a.trace_out + ".*");
  }
  print_line(attempted, failed, failures, metrics);
  return 0;
}

int cmd_result(const Args& a) {
  std::string error;
  std::optional<Scenario> s = Scenario::load(a.scenario, &error);
  if (!s.has_value()) {
    std::fprintf(stderr, "%s: %s\n", a.scenario.c_str(), error.c_str());
    return 1;
  }
  if (a.budget != 0) s->budget_cycles = a.budget;
  scenario::RunOptions opts;
  if (a.mode == "dense") {
    opts.mode = SimMode::kStrictTick;
  } else if (a.mode != "event") {
    return usage();
  }
  ConservationLedger::instance().reset();
  std::string json;
  {
    ScenarioRun run(*s, opts);
    run.run_all();
    json = run.result_json();
    const auto ledger = ConservationLedger::instance().report();
    if (!ledger.conserved()) {
      std::fprintf(stderr, "ledger not conserved: %s\n",
                   ledger.to_string().c_str());
      std::fputs(json.c_str(), stdout);
      return 3;
    }
  }
  std::fputs(json.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> a = parse_args(argc, argv);
  if (!a.has_value()) return usage();
  try {
    if (a->command == "measure") return cmd_measure(*a);
    if (a->command == "result") return cmd_result(*a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "panic_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
