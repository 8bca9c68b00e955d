// panic_run — execute any scenario file under either kernel.
//
//   panic_run <scenario> [--seed S] [--mode dense|event]
//             [--trace out.json] [--out result.json]
//   panic_run check <scenario...>    parse + feasibility + NIC build dry-run
//   panic_run print <scenario>       canonical serialization to stdout
//   panic_run fields                 scenario-language field reference
//
// The result JSON goes to stdout (and to --out when given).  Everything in
// it except the single "runner" line is kernel-independent, so
//   panic_run s.scenario --mode dense | grep -v '"runner"'
//   panic_run s.scenario --mode event | grep -v '"runner"'
// must compare byte-equal — the CI equivalence gate.

#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/codec.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace {

using panic::scenario::Scenario;

std::optional<Scenario> load_or_complain(const std::string& path) {
  std::string error;
  auto s = Scenario::load(path, &error);
  if (!s.has_value()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
  }
  return s;
}

/// Parse, feasibility-check and dry-build `path` (catches p4lite program
/// compile errors, which only surface when the NIC is constructed).
int check_one(const std::string& path) {
  auto s = load_or_complain(path);
  if (!s.has_value()) return 1;
  std::string why;
  if (!s->feasible(/*strict_finite=*/false, &why)) {
    std::fprintf(stderr, "%s: not feasible: %s\n", path.c_str(), why.c_str());
    return 1;
  }
  try {
    panic::scenario::ScenarioRun run(*s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("%s: ok (%llu frame(s), budget %llu cycles)\n", path.c_str(),
              static_cast<unsigned long long>(s->total_frames()),
              static_cast<unsigned long long>(s->budget_cycles));
  return 0;
}

int cmd_check(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    std::fprintf(stderr, "panic_run check: no scenario files given\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& p : paths) failures += check_one(p);
  return failures == 0 ? 0 : 1;
}

int cmd_print(const std::vector<std::string>& paths) {
  if (paths.size() != 1) {
    std::fprintf(stderr, "panic_run print: expected one scenario file\n");
    return 2;
  }
  auto s = load_or_complain(paths[0]);
  if (!s.has_value()) return 1;
  std::fputs(s->to_string().c_str(), stdout);
  return 0;
}

int cmd_run(const Scenario& loaded, const panic::cli::ArgParser& args,
            const std::string& trace_path, const std::string& out_path,
            const std::string& rmt_cache) {
  Scenario s = loaded;
  if (!rmt_cache.empty()) {
    const auto on = panic::codec::value_of<bool>(panic::codec::kSwitchNames,
                                                 rmt_cache);
    if (!on) {
      std::fprintf(stderr, "--rmt-cache takes on|off, got '%s'\n",
                   rmt_cache.c_str());
      return 2;
    }
    s.rmt_cache_enabled = *on;
  }

  panic::scenario::RunOptions opts;
  opts.mode = args.sim_mode();
  opts.trace_path = trace_path;

  try {
    panic::scenario::ScenarioRun run(s, opts);
    run.run_all();
    const std::string json = run.result_json();
    std::fputs(json.c_str(), stdout);
    if (!out_path.empty() && !run.write_result_json(out_path)) {
      std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  panic::cli::ArgParser args(
      "panic_run",
      "run | check | print | fields — execute scenario files under any "
      "kernel");
  std::string trace_path;
  std::string out_path;
  args.option("trace", "write chrome://tracing JSON here", &trace_path);
  args.option("out", "also write result JSON to this file", &out_path);
  std::string rmt_cache;
  args.option("rmt-cache",
              "override the scenario's rmt_cache knob (on|off); the result "
              "JSON must be identical either way modulo rmt.cache.*",
              &rmt_cache);
  args.parse(argc, argv);

  std::vector<std::string> rest = args.positionals();
  std::string command = "run";
  if (!rest.empty() && (rest[0] == "run" || rest[0] == "check" ||
                        rest[0] == "print" || rest[0] == "fields")) {
    command = rest[0];
    rest.erase(rest.begin());
  }

  if (command == "fields") {
    std::fputs(panic::scenario::field_reference().c_str(), stdout);
    return 0;
  }
  if (command == "check") return cmd_check(rest);
  if (command == "print") return cmd_print(rest);

  if (rest.size() != 1) {
    std::fprintf(stderr, "%s", args.usage().c_str());
    std::fprintf(stderr, "expected exactly one scenario file\n");
    return 2;
  }
  auto s = load_or_complain(rest[0]);
  if (!s.has_value()) return 1;
  return cmd_run(*s, args, trace_path, out_path, rmt_cache);
}
