// Fault resilience: what one dead engine costs each architecture.
//
// PANIC provisions offloads as interchangeable engines on the NoC; when
// one dies mid-run the RMT pipeline re-steers its chains to an equivalent
// sibling, so the NIC keeps delivering at (nearly) full rate — the only
// casualties are messages already queued inside or in flight toward the
// dead engine, and every one of them is attributed (fate kFaulted), never
// silently lost.  The pipeline ("bump-in-the-wire") baseline has no
// detour around a dead block: wedging the same offload freezes the wire
// and throughput collapses to whatever was delivered before the fault.
//
// Acceptance gate (exit status): PANIC with one of its two parallel
// engines killed 30% into the run must deliver >= 80% of its fault-free
// count, and the run must conserve messages.  Results go to stdout and,
// machine-readable, to BENCH_fault_resilience.json (including the sim
// seed for reproduction).  `--seed N` varies the run;
// `--smoke` shrinks it for CI.
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/report.h"
#include "baselines/pipeline_nic.h"
#include "common/cli.h"
#include "common/rng.h"
#include "core/panic_nic.h"
#include "fault/invariants.h"
#include "net/packet.h"
#include "workload/kvs_workload.h"
#include "workload/traffic_gen.h"

using namespace panic;
using namespace panic::analysis;

namespace {

constexpr std::uint16_t kOffloadPort = 7777;
constexpr Cycles kOffloadCycles = 100;
constexpr double kGap = 120.0;        // offered load: ~83% of the
                                      // offload's capacity, so a small
                                      // backlog exists when the kill lands
constexpr double kKillFraction = 0.3; // fault lands 30% into the run
const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);

bool g_smoke = false;

struct Result {
  std::uint64_t delivered = 0;
  std::uint64_t faulted = 0;  // casualties attributed to the injected fault
  bool conserved = false;
};

Result run_panic(std::uint64_t frames, bool kill_one_engine) {
  fault::ConservationChecker conservation;
  Simulator sim(Frequency::megahertz(500), requested_sim_mode());

  core::PanicConfig cfg;
  cfg.mesh.k = 5;
  cfg.aux_engines = 2;  // the parallel pair; chains nominally use aux0
  cfg.aux_fixed_cycles = kOffloadCycles;
  cfg.customize_program = [](rmt::RmtProgram& program,
                             const core::PanicTopology& topo) {
    auto& stage = program.add_stage("offload_select");
    rmt::MatchTable t("offload_port", rmt::MatchKind::kExact,
                      {rmt::Field::kL4DstPort});
    t.add_exact(kOffloadPort, rmt::Action("to_offload")
                                  .clear_chain()
                                  .push_hop(topo.aux[0].value)
                                  .push_hop(topo.dma.value));
    stage.tables.push_back(std::move(t));
  };
  const auto kill_at =
      static_cast<Cycle>(kGap * static_cast<double>(frames) * kKillFraction);
  if (kill_one_engine) cfg.faults.kill("aux0", kill_at);
  core::PanicNic nic(cfg, sim);

  workload::TrafficConfig tcfg;
  tcfg.mean_gap_cycles = kGap;
  tcfg.max_frames = frames;
  workload::TrafficSource src(
      "gen", &nic.eth_port(0),
      workload::make_udp_factory(kClient, kServer, 256, kOffloadPort), tcfg);
  sim.add(&src);

  auto& m = sim.telemetry().metrics();
  const auto& delivered = m.counter("engine.dma.packets_to_host");
  sim.run_until(
      [&] {
        return delivered + static_cast<std::uint64_t>(
                               conservation.delta().faulted) >= frames;
      },
      static_cast<Cycles>(kGap * static_cast<double>(frames)) + 200000);

  Result r;
  r.delivered = delivered;
  r.faulted = static_cast<std::uint64_t>(conservation.delta().faulted);
  r.conserved = conservation.verify_or_log();
  return r;
}

Result run_pipeline(std::uint64_t frames, bool wedge_offload) {
  fault::ConservationChecker conservation;
  Simulator sim(Frequency::megahertz(500), requested_sim_mode());
  baselines::PipelineNicConfig pcfg;
  baselines::PipelineNic nic(
      "pipe", {baselines::slow_offload_spec(kOffloadCycles, kOffloadPort)},
      pcfg, sim);
  const auto kill_at =
      static_cast<Cycle>(kGap * static_cast<double>(frames) * kKillFraction);
  if (wedge_offload) {
    sim.schedule_at(kill_at, [&nic] { nic.wedge_stage("slow"); });
  }

  auto& m = sim.telemetry().metrics();
  const auto& delivered = m.counter("baseline.pipe.delivered");
  const auto& dropped = m.counter("baseline.pipe.dropped");
  // Injections go through the event queue (the baseline has no Ethernet
  // port component): predicate-side injection would be skipped whenever
  // the event kernel fast-forwards an idle wire.
  for (std::uint64_t i = 0; i < frames; ++i) {
    sim.schedule_at(
        1 + static_cast<Cycle>(static_cast<double>(i) * kGap), [&sim, &nic,
                                                                i] {
          nic.inject_rx(frames::min_udp(kClient, kServer,
                                        static_cast<std::uint16_t>(
                                            40000 + i % 512),
                                        kOffloadPort),
                        sim.now(), TenantId{0});
        });
  }
  sim.run_until(
      [&] { return delivered + dropped >= frames; },
      static_cast<Cycles>(kGap * static_cast<double>(frames)) + 200000);

  Result r;
  r.delivered = delivered;
  // Wedged-stage messages are still queued on the wire (live), so the
  // window stays conserved — nothing is silently lost, just stuck.
  r.conserved = conservation.verify_or_log();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_fault_resilience",
                      "PANIC vs pipeline NIC with one dead engine");
  args.flag("smoke", "reduced frame count for CI", &g_smoke);
  args.parse(argc, argv);
  const std::uint64_t seed = args.seed();
  const std::uint64_t frames = g_smoke ? 400 : 2000;

  std::printf("PANIC reproduction — fault resilience (one dead engine)\n");
  std::printf("All traffic needs a %llu-cycle offload; the engine serving\n"
              "it dies %.0f%% into the run.  PANIC re-steers to the\n"
              "equivalent sibling engine; the pipeline NIC has no detour.\n"
              "(seed %llu)\n\n",
              static_cast<unsigned long long>(kOffloadCycles),
              kKillFraction * 100, static_cast<unsigned long long>(seed));

  const Result panic_clean = run_panic(frames, false);
  const Result panic_faulty = run_panic(frames, true);
  const Result pipe_clean = run_pipeline(frames, false);
  const Result pipe_faulty = run_pipeline(frames, true);

  const auto ratio = [](const Result& faulty, const Result& clean) {
    return clean.delivered == 0
               ? 0.0
               : static_cast<double>(faulty.delivered) /
                     static_cast<double>(clean.delivered);
  };
  const double panic_ratio = ratio(panic_faulty, panic_clean);
  const double pipe_ratio = ratio(pipe_faulty, pipe_clean);

  Report report({"Architecture", "fault-free", "one engine dead",
                 "attributed", "throughput kept"});
  report.add_row(
      {"PANIC", strf("%llu", (unsigned long long)panic_clean.delivered),
       strf("%llu", (unsigned long long)panic_faulty.delivered),
       strf("%llu", (unsigned long long)panic_faulty.faulted),
       strf("%.1f%%", panic_ratio * 100)});
  report.add_row(
      {"pipeline (bump-in-wire)",
       strf("%llu", (unsigned long long)pipe_clean.delivered),
       strf("%llu", (unsigned long long)pipe_faulty.delivered), "-",
       strf("%.1f%%", pipe_ratio * 100)});
  report.print("Frames delivered to the host");

  bool ok = true;
  if (panic_ratio < 0.80) {
    std::fprintf(stderr, "FAIL: PANIC kept only %.1f%% of fault-free "
                         "throughput (need >= 80%%)\n",
                 panic_ratio * 100);
    ok = false;
  }
  if (!panic_clean.conserved || !panic_faulty.conserved ||
      !pipe_clean.conserved || !pipe_faulty.conserved) {
    std::fprintf(stderr, "FAIL: a run violated message conservation\n");
    ok = false;
  }
  // Every frame PANIC didn't deliver under the fault must be attributed.
  if (panic_faulty.delivered + panic_faulty.faulted != frames) {
    std::fprintf(stderr,
                 "FAIL: %llu frames unaccounted for under the fault\n",
                 static_cast<unsigned long long>(
                     frames - panic_faulty.delivered - panic_faulty.faulted));
    ok = false;
  }

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n  \"bench\": \"fault_resilience\",\n  \"seed\": %llu,\n"
      "  \"frames\": %llu,\n  \"offload_cycles\": %llu,\n"
      "  \"kill_fraction\": %.2f,\n"
      "  \"panic\": {\"clean\": %llu, \"faulty\": %llu, \"faulted\": %llu,"
      " \"ratio\": %.4f, \"conserved\": %s},\n"
      "  \"pipeline\": {\"clean\": %llu, \"faulty\": %llu, \"ratio\": %.4f,"
      " \"conserved\": %s},\n  \"pass\": %s\n}\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(frames),
      static_cast<unsigned long long>(kOffloadCycles), kKillFraction,
      static_cast<unsigned long long>(panic_clean.delivered),
      static_cast<unsigned long long>(panic_faulty.delivered),
      static_cast<unsigned long long>(panic_faulty.faulted), panic_ratio,
      panic_clean.conserved && panic_faulty.conserved ? "true" : "false",
      static_cast<unsigned long long>(pipe_clean.delivered),
      static_cast<unsigned long long>(pipe_faulty.delivered), pipe_ratio,
      pipe_clean.conserved && pipe_faulty.conserved ? "true" : "false",
      ok ? "true" : "false");
  if (std::FILE* f = std::fopen("BENCH_fault_resilience.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
    std::printf("\nwrote BENCH_fault_resilience.json\n");
  }

  std::printf("\nShape check: PANIC keeps >= 80%% of its fault-free "
              "throughput (re-steered to the sibling engine, casualties "
              "attributed); the pipeline NIC freezes at the wedge and "
              "collapses to ~%.0f%%.\n", kKillFraction * 100);
  return ok ? 0 : 1;
}
