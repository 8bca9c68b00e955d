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
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/codec.h"
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
  /// Valued options: `--name <v>` or `--name=<v>`.  Numbers go through
  /// common/codec.h and must lie in `range`; integers accept decimal or
  /// 0x-hex.
  void option(std::string_view name, std::string_view doc, std::string* out);
  template <typename T>
    requires std::is_arithmetic_v<T>
  void option(std::string_view name, std::string_view doc, T* out,
              codec::Range<T> range = {}) {
    add(name, doc, true,
        [out, range](const char* value, std::string* why) {
          return codec::read(value, out, why, range,
                             /*hex=*/std::is_integral_v<T>);
        });
  }

  /// Parses argv, applying built-ins as encountered.  On --help prints
  /// usage and exits 0; on an unknown flag, a malformed value or a bare
  /// key=value token prints the error plus usage to stderr and exits 2.
  void parse(int argc, const char* const* argv);

  // --- Results (valid after parse). ---

  /// The resolved process-wide seed (sim_seed() after any --seed).
  std::uint64_t seed() const { return seed_; }
  /// True when the user passed --seed explicitly.
  bool seed_given() const { return seed_given_; }
  /// The kernel to construct: --mode's, else the event kernel.  Every
  /// simulator a binary builds takes this value.
  SimMode sim_mode() const { return mode_; }

  /// Remaining bare tokens, in order (file paths etc.).
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Usage text (also printed by --help).
  std::string usage() const;

 private:
  /// Stores a flag's value (nullptr for a switch); false + *why when the
  /// value is malformed.
  using Setter = std::function<bool(const char* value, std::string* why)>;
  struct Spec {
    std::string name;
    std::string doc;
    bool takes_value;
    Setter set;
  };

  void add(std::string_view name, std::string_view doc, bool takes_value,
           Setter set);
  [[noreturn]] void fail(const std::string& message) const;

  std::string program_;
  std::string synopsis_;
  std::vector<Spec> specs_;
  std::uint64_t seed_ = 0;
  bool seed_given_ = false;
  SimMode mode_ = SimMode::kEventDriven;
  std::vector<std::string> positionals_;
};

}  // namespace panic::cli
