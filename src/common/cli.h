// The one command-line surface shared by every bench, example and tool.
//
// Before this existed each binary hand-rolled its own argv loop on top of
// apply_seed_args plus ad-hoc strcmp chains; the same flag parsed three
// different ways in three binaries.  ArgParser gives all of them one
// grammar:
//
//   binary [flags] [positional ...]
//
// with `--seed N`, `--mode dense|event` and `--help` built in.  --seed
// resolves through the process-wide set_sim_seed() plumbing
// (common/rng.h) during parse(), so it must be applied before any
// NIC/Simulator is constructed — i.e. call parse() first thing in main, as
// every migrated binary does.
//
//   int main(int argc, char** argv) {
//     cli::ArgParser args("bench_foo", "sweep chain lengths");
//     bool smoke = false;
//     args.flag("smoke", "reduced iteration counts for CI", &smoke);
//     args.parse(argc, argv);
//     Simulator sim(Frequency::megahertz(500), args.sim_mode());
//     ...
//   }
//
// Unknown `--flags` are an error (usage to stderr, exit 2) — silent
// acceptance is how typos in CI invocations go unnoticed.  So is a bare
// `key=value` token: every setting lives in a scenario file or a --flag.
// The remaining bare tokens become positionals (scenario/replay file
// paths).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_mode.h"

namespace panic::cli {

class ArgParser {
 public:
  /// `program` is the binary name for usage text; `synopsis` one line on
  /// what it does.  --seed/--mode/--help are pre-registered.
  ArgParser(std::string program, std::string synopsis);

  // --- Flag registration (call before parse). ---
  // `name` is spelled without the leading "--".  Targets are written only
  // when the flag appears; initialize them to the default.

  /// Boolean switch: `--name` sets *out = true.
  void flag(std::string_view name, std::string_view doc, bool* out);
  /// Valued options: `--name <v>` or `--name=<v>`.  Integers accept
  /// decimal or 0x-hex.
  void option(std::string_view name, std::string_view doc, std::string* out);
  void option(std::string_view name, std::string_view doc, std::int64_t* out);
  void option(std::string_view name, std::string_view doc,
              std::uint64_t* out);
  void option(std::string_view name, std::string_view doc, double* out);

  /// Parses argv, applying built-ins as encountered.  On --help prints
  /// usage and exits 0; on an unknown flag, a malformed value or a bare
  /// key=value token prints the error plus usage to stderr and exits 2.
  void parse(int argc, const char* const* argv);

  // --- Results (valid after parse). ---

  /// The resolved process-wide seed (sim_seed() after any --seed).
  std::uint64_t seed() const { return seed_; }
  /// True when the user passed --seed explicitly.
  bool seed_given() const { return seed_given_; }
  /// The kernel mode to construct: an explicit --mode wins, else
  /// requested_sim_mode(fallback).
  SimMode sim_mode(SimMode fallback = SimMode::kEventDriven) const;
  /// True when the user passed --mode explicitly.
  bool mode_given() const { return mode_given_; }

  /// Remaining bare tokens, in order (file paths etc.).
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Usage text (also printed by --help).
  std::string usage() const;

 private:
  enum class Kind : std::uint8_t { kBool, kString, kInt, kUint, kDouble };
  struct Spec {
    std::string name;
    std::string doc;
    Kind kind;
    void* out;
  };

  void add(std::string_view name, std::string_view doc, Kind kind, void* out);
  [[noreturn]] void fail(const std::string& message) const;

  std::string program_;
  std::string synopsis_;
  std::vector<Spec> specs_;
  std::uint64_t seed_ = 0;
  bool seed_given_ = false;
  SimMode mode_ = SimMode::kEventDriven;
  bool mode_given_ = false;
  std::vector<std::string> positionals_;
};

}  // namespace panic::cli
