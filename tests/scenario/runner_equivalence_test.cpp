// The runner contract behind `panic_run`: executing a checked-in
// .scenario file through ScenarioRun is bit-identical to hand-building
// the same design point with direct Simulator/PanicNic calls — in both
// kernels — and the result JSON of the two kernels agrees modulo the
// single "runner" line (the CI diff gate).
#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/panic_config.h"
#include "core/panic_nic.h"
#include "fault/invariants.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace panic::scenario {
namespace {

const char* kQuickstart = PANIC_SCENARIO_EXAMPLES_DIR "/quickstart.scenario";

bool is_kernel_metric(const std::string& name) {
  return name.rfind("kernel.", 0) == 0;
}

Scenario load_quickstart() {
  std::string error;
  const auto s = Scenario::load(kQuickstart, &error);
  EXPECT_TRUE(s.has_value()) << error;
  return *s;
}

/// The quickstart design point rebuilt by hand, bypassing the scenario
/// layer entirely: stock PanicConfig (quickstart uses only defaults) and
/// the three frames event-scheduled exactly as the file specifies.
telemetry::MetricsSnapshot run_hand_built(SimMode mode, Cycle budget,
                                          Cycle* final_cycle) {
  Simulator sim(Frequency::megahertz(500), mode);
  core::PanicConfig cfg;
  core::PanicNic nic(cfg, sim);

  const Ipv4Addr src(10, 1, 0, 2);
  const Ipv4Addr dst(10, 0, 0, 1);
  sim.schedule_at(0, [&] {
    deliver_frame(nic.eth_port(0),
                  frames::min_udp(src, dst, 40000, 9), sim.now());
  });
  sim.schedule_at(0, [&] {
    deliver_frame(nic.eth_port(0),
                  frames::kvs_set(src, dst, 1, 7, 1, 64), sim.now());
  });
  sim.schedule_at(2000, [&] {
    deliver_frame(nic.eth_port(0),
                  frames::kvs_get(src, dst, 1, 7, 2), sim.now());
  });

  sim.run(budget);
  *final_cycle = sim.now();
  return sim.snapshot();
}

TEST(ScenarioRunner, MatchesHandBuiltReplicaInBothKernels) {
  const Scenario s = load_quickstart();
  ASSERT_TRUE(s.workloads.empty());  // replica below assumes inject-only

  for (const SimMode mode : {SimMode::kStrictTick, SimMode::kEventDriven}) {
    SCOPED_TRACE(panic::to_string(mode));

    RunOptions opts;
    opts.mode = mode;
    ScenarioRun run(s, opts);
    run.run_all();
    const Outcome o = run.outcome();

    Cycle hand_final = 0;
    const telemetry::MetricsSnapshot hand =
        run_hand_built(mode, s.budget_cycles, &hand_final);

    EXPECT_EQ(o.final_cycle, hand_final);
    const auto diffs = o.snapshot.diff_names(hand, is_kernel_metric);
    EXPECT_TRUE(diffs.empty()) << diffs.size() << " metrics differ, first: "
                               << diffs.front();
    // The headline numbers agree too (belt and braces over the snapshot
    // diff — these are what result JSON reports).
    EXPECT_EQ(o.delivered, hand.counter("engine.dma.packets_to_host"));
    EXPECT_EQ(o.flits_routed,
              static_cast<std::uint64_t>(hand.value("noc.flits_routed")));
  }
}

TEST(ScenarioRunner, ChainFromOffTheMeshIsAProgramDrop) {
  // chain_from reads its hop from a field, so only the RMT tile can check
  // it: a tile past the 4x4 mesh is a program drop, not a message that
  // routers stall on.
  Scenario s = load_quickstart();
  s.program = R"(
stage off_mesh {
  table t ternary(meta.msg_kind) {
    0 prio 1 -> set(meta.queue, 999), clear_chain, chain_from(meta.queue);
  }
}
)";
  for (const SimMode mode : {SimMode::kStrictTick, SimMode::kEventDriven}) {
    SCOPED_TRACE(panic::to_string(mode));
    fault::ConservationChecker ledger;
    RunOptions opts;
    opts.mode = mode;
    ScenarioRun run(s, opts);
    run.run_all();
    const auto snap = run.sim().snapshot();
    EXPECT_EQ(snap.counter("rmt.rmt0.dropped") +
                  snap.counter("rmt.rmt1.dropped"),
              3u);
    std::uint64_t stalls = 0;
    for (int t = 0; t < 16; ++t) {
      stalls += snap.counter("noc.router." + std::to_string(t) +
                             ".stall_cycles");
    }
    EXPECT_EQ(stalls, 0u);
    const auto d = ledger.delta();
    EXPECT_EQ(d.created, 3);
    EXPECT_EQ(d.dropped, 3);
    EXPECT_TRUE(d.conserved()) << d.to_string();
  }
}

/// Drops the one kernel-dependent line so two modes' outputs can be
/// compared byte-for-byte — the same filter CI applies with
/// `grep -v '"runner"'`.
std::string strip_runner_line(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"runner\"") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(ScenarioRunner, ResultJsonIdenticalAcrossKernelsModuloRunnerLine) {
  const Scenario s = load_quickstart();

  std::vector<std::string> jsons;
  for (const SimMode mode : {SimMode::kStrictTick, SimMode::kEventDriven}) {
    RunOptions opts;
    opts.mode = mode;
    ScenarioRun run(s, opts);
    run.run_all();
    jsons.push_back(run.result_json());
    // The runner line itself must name the mode it ran under.
    EXPECT_NE(jsons.back().find(std::string("\"mode\": \"") +
                                panic::to_string(mode) + "\""),
              std::string::npos);
  }
  EXPECT_EQ(strip_runner_line(jsons[0]), strip_runner_line(jsons[1]));
}

TEST(ScenarioRunner, FillKindsAreSpellingsOfUdpAndMin) {
  // `udp_fill` and `min_fill` name the same filler as `udp` and `min`: in
  // either kernel, the result JSON cannot tell the spellings apart.
  using Kind = WorkloadSpec::Kind;
  const std::pair<Kind, Kind> spellings[] = {{Kind::kUdp, Kind::kUdpFill},
                                             {Kind::kMinFrame, Kind::kMinFill}};
  for (const auto& [kind, fill_kind] : spellings) {
    for (const SimMode mode : {SimMode::kStrictTick, SimMode::kEventDriven}) {
      std::string json[2];
      for (int i = 0; i < 2; ++i) {
        Scenario s;
        s.budget_cycles = 30000;
        WorkloadSpec w;
        w.kind = i == 0 ? kind : fill_kind;
        w.mean_gap_cycles = 60.0;
        w.max_frames = 300;
        w.frame_bytes = 700;
        w.flows = 8;
        s.workloads.push_back(w);
        RunOptions opts;
        opts.mode = mode;
        ScenarioRun run(s, opts);
        run.run_all();
        json[i] = run.result_json();
      }
      EXPECT_EQ(json[0], json[1]) << panic::to_string(mode);
    }
  }
}

TEST(ScenarioRunner, UnknownFaultTargetFailsToBuild) {
  // What `panic_run check` reports for a plan naming a missing engine:
  // the dry build throws, so no run starts with the fault silently unarmed.
  Scenario s = load_quickstart();
  s.faults.kill("nosuchengine", 100);
  try {
    ScenarioRun run(s);
    ADD_FAILURE() << "built a NIC whose fault plan names a missing engine";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fault plan names unknown engine 'nosuchengine'");
  }
}

/// A strict JSON reader, just enough to accept or reject a result file:
/// parse() is true only if the whole text is one JSON value, and it
/// collects the decoded string value of every object member by key.
class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  bool parse() {
    if (!value()) return false;
    space();
    return i_ == s_.size();
  }
  std::vector<std::pair<std::string, std::string>> strings;

 private:
  void space() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    space();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      switch (e) {
        case '"': case '\\': case '/': *out += e; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          *out += static_cast<char>(std::stoi(s_.substr(i_, 4), nullptr, 16));
          i_ += 4;
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool value(std::string* str = nullptr) {
    space();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '"') {
      std::string tmp;
      return string(str != nullptr ? str : &tmp);
    }
    if (c == '{') {
      ++i_;
      if (eat('}')) return true;
      do {
        std::string key, val;
        if (!string(&key) || !eat(':') || !value(&val)) return false;
        strings.emplace_back(key, val);
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++i_;
      if (eat(']')) return true;
      do {
        if (!value()) return false;
      } while (eat(','));
      return eat(']');
    }
    const std::size_t start = i_;
    while (i_ < s_.size() && std::strchr("+-.eE0123456789", s_[i_]) != nullptr) {
      ++i_;
    }
    return i_ > start;
  }

  std::string s_;
  std::size_t i_ = 0;
};

TEST(ScenarioRunner, ResultJsonEscapesTheScenarioName) {
  Scenario s = load_quickstart();
  s.name = "quick\"start\\ \x01";
  s.budget_cycles = 200;
  ScenarioRun run(s, RunOptions{});
  run.run_all();
  JsonReader json(run.result_json());
  ASSERT_TRUE(json.parse()) << run.result_json();
  ASSERT_FALSE(json.strings.empty());
  EXPECT_EQ(json.strings.front().first, "scenario");
  EXPECT_EQ(json.strings.front().second, s.name);
}

TEST(ScenarioRunner, CheckedInFileIsACanonicalFixpoint) {
  const Scenario s = load_quickstart();
  std::string error;
  const auto reparsed = Scenario::parse(s.to_string(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->to_string(), s.to_string());
}

TEST(ScenarioRunner, DefaultClientAddressIsOnePerTenant) {
  // Below 256 it is 10.<tenant>.0.2, as every checked-in scenario and
  // both fuzz generators expect.
  EXPECT_EQ(default_client_addr(0).to_string(), "10.0.0.2");
  EXPECT_EQ(default_client_addr(44).to_string(), "10.44.0.2");
  EXPECT_EQ(default_client_addr(255).to_string(), "10.255.0.2");
  // Above, the high byte moves to the third octet: tenants 300 and 44
  // used to share 10.44.0.2.
  EXPECT_EQ(default_client_addr(300).to_string(), "10.44.1.2");
  EXPECT_EQ(default_client_addr(65535).to_string(), "10.255.255.2");
}

TEST(ScenarioRunner, SourceLookupFindsNamedWorkloads) {
  Scenario s;
  s.budget_cycles = 100;
  WorkloadSpec named;
  named.name = "bulk";
  named.max_frames = 1;
  s.workloads.push_back(named);
  WorkloadSpec unnamed;
  unnamed.max_frames = 1;
  s.workloads.push_back(unnamed);

  ScenarioRun run(s, RunOptions{});
  EXPECT_NE(run.source("bulk"), nullptr);
  EXPECT_NE(run.source("w1"), nullptr);  // unnamed -> "w<index>"
  EXPECT_EQ(run.source("nope"), nullptr);
}

}  // namespace
}  // namespace panic::scenario
