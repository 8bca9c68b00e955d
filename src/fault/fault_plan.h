// FaultPlan: a deterministic, seeded schedule of injectable faults.
//
// A plan is data, not behaviour: an ordered list of FaultSpec entries
// ("kill engine aes_0 at cycle 5000", "make router 6's west link flaky
// with p=0.1 between cycles 1000 and 9000").  The FaultInjector
// (fault_injector.h) arms a plan against a live simulation by scheduling
// each spec's application through `Simulator::schedule_at`, which fires
// identically in both kernel modes — so the same plan + the same seed
// produce bit-identical runs in kStrictTick and kEventDriven.
//
// All randomness (flaky-link delays, corruption byte flips) derives from
// the plan's seed through common/rng.h splitmix streams, one stream per
// fault, so adding a fault never perturbs the draws of another.
//
// Plans are built programmatically (the builder helpers below) or read
// one fault line at a time by FaultSpec::parse — the `fault` lines of a
// scenario file (src/scenario), whose `fault_seed` line sets the seed:
//
//   kill     <engine> @<cycle> [fallback=<engine>]
//   stall    <engine> @<cycle> for=<cycles>
//   degrade  <engine> @<cycle> x=<factor> [for=<cycles>]
//   flaky    <router-tile> [port=<n|e|s|w|local>] @<cycle> p=<prob>
//            delay=<cycles> [for=<cycles>]
//   corrupt  <engine> @<cycle> p=<prob> [for=<cycles>]
//   leak     <router-tile> [port=<n|e|s|w|local>] @<cycle> credits=<n>
//   revive   <engine> @<cycle> [warmup=<cycles>]
//   spare    <engine> for=<dead_engine> @<cycle>
//
// Numbers go through common/codec.h: decimal, whole token, in range
// (x > 0, p in 0..1); a `#` starts a comment.  `for=0` / omitted duration
// means "until the end of the run" (permanent).
// `revive` brings a killed engine back: it accepts work again at <cycle>,
// and after `warmup` further cycles the SteeringDirectory marks it alive so
// new chains steer back to it (in-flight messages drain on the old path).
// `spare` activates <engine> as the standby for <dead_engine>: it is
// revived if dead and installed as the steering fallback, so traffic that
// targeted <dead_engine> flows to the spare from <cycle> on.  For `spare`
// the for= value is an engine name, not a duration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace panic::fault {

enum class FaultKind : std::uint8_t {
  kEngineDeath,    ///< permanent: engine discards all work from `at` on
  kEngineStall,    ///< transient: engine freezes for `duration` cycles
  kEngineDegrade,  ///< service times multiply by `factor` for `duration`
  kLinkFlaky,      ///< router input port delays flits w.p. `probability`
  kCorruption,     ///< arriving payload bytes flip w.p. `probability`
  kCreditLeak,     ///< router input port permanently loses `amount` credits
  kEngineRevive,   ///< recovery: a killed engine rejoins after `warmup`
  kSpareActivate,  ///< recovery: engine becomes the standby for `spare_for`
};

/// Number of FaultKind values (sized arrays in the injector telemetry).
inline constexpr std::size_t kFaultKindCount = 8;

struct FaultSpec {
  FaultKind kind = FaultKind::kEngineDeath;

  /// Target component.  Engine faults name the engine ("aes_0"); router
  /// faults give the mesh tile id and input port.
  std::string engine;
  int router_tile = -1;
  int port = -1;  ///< noc::Direction as int; -1 = every input port

  Cycle at = 0;        ///< cycle the fault is applied
  Cycles duration = 0; ///< active window; 0 = permanent

  double factor = 1.0;       ///< kEngineDegrade service-time multiplier
  double probability = 1.0;  ///< kLinkFlaky / kCorruption per-event chance
  Cycles delay = 0;          ///< kLinkFlaky extra delivery delay
  std::uint32_t amount = 0;  ///< kCreditLeak leaked credits

  /// Optional explicit fallback engine for kEngineDeath (overrides
  /// equivalence-group resolution in the SteeringDirectory).
  std::string fallback;

  /// kEngineRevive: cycles between the engine accepting work again and the
  /// SteeringDirectory steering new chains back to it (cold-start window).
  Cycles warmup = 0;

  /// kSpareActivate: the dead engine this spare stands in for (the
  /// `for=<engine>` operand — a name, unlike the duration `for=` elsewhere).
  std::string spare_for;

  /// Round-trips through parse().
  std::string to_string() const;

  /// Parses one fault line of the grammar above.  nullopt, and the reason
  /// in *error when non-null, on malformed input.
  static std::optional<FaultSpec> parse(std::string_view line,
                                        std::string* error = nullptr);

  bool operator==(const FaultSpec&) const = default;
};

class FaultPlan {
 public:
  /// Seed for every random draw the plan's faults make.  Runs of the same
  /// plan with the same seed are bit-identical; distinct faults use
  /// distinct derived streams.
  std::uint64_t seed = 1;

  const std::vector<FaultSpec>& faults() const { return faults_; }
  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }

  void add(FaultSpec spec) { faults_.push_back(std::move(spec)); }

  // --- Builder helpers (return *this for chaining). ---
  FaultPlan& kill(std::string engine, Cycle at, std::string fallback = "");
  FaultPlan& stall(std::string engine, Cycle at, Cycles duration);
  FaultPlan& degrade(std::string engine, Cycle at, double factor,
                     Cycles duration = 0);
  FaultPlan& flaky_link(int router_tile, int port, Cycle at,
                        double probability, Cycles delay,
                        Cycles duration = 0);
  FaultPlan& corrupt(std::string engine, Cycle at, double probability,
                     Cycles duration = 0);
  FaultPlan& leak_credits(int router_tile, int port, Cycle at,
                          std::uint32_t amount);
  FaultPlan& revive(std::string engine, Cycle at, Cycles warmup = 0);
  FaultPlan& spare(std::string engine, std::string dead_engine, Cycle at);

  bool operator==(const FaultPlan&) const = default;

 private:
  std::vector<FaultSpec> faults_;
};

}  // namespace panic::fault
