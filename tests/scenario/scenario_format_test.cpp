// The scenario-language contract: canonical serialization is a parse
// fixpoint (parse -> to_string -> parse is byte-identical), malformed
// input fails with a line-numbered error, and `panic_scenario 1` is the
// only header.
#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <string>

namespace panic::scenario {
namespace {

/// A scenario exercising every serializable feature: non-default scalars,
/// per-tenant slacks, all workload kinds' conditional keys, all four
/// inject kinds, host TX, a fault plan, and a p4lite program block.
Scenario make_full_scenario() {
  Scenario s;
  s.name = "format_full";
  s.seed = 42;
  s.mesh_k = 5;
  s.channel_bits = 64;
  s.freq_mhz = 800;
  s.eth_ports = 3;
  s.rmt_engines = 2;
  s.aux_engines = 2;
  s.spare_tiles = 1;
  s.sched_policy = engines::SchedKind::kFifo;
  s.drop_policy = engines::DropPolicy::kEvictLoosest;
  s.engine_queue_capacity = 128;
  s.rmt_input_queue = 256;
  s.rmt_cache_sets = 32;
  s.rmt_cache_ways = 2;
  s.aux_fixed_cycles = 1;
  s.dma_base_latency = 90;
  s.dma_bytes_per_cycle = 256.0;
  s.dma_contention_mean = 25.5;
  s.default_slack = 500;
  s.tenant_slacks = {{1, 10}, {2, 100000}};
  s.pool_reserve = 4096;
  s.warmup_cycles = 1000;
  s.budget_cycles = 30000;
  s.mode = SimMode::kStrictTick;

  WorkloadSpec udp;
  udp.name = "bulk";
  udp.port = 1;
  udp.kind = WorkloadSpec::Kind::kUdp;
  udp.tenant = 2;
  udp.pattern = workload::ArrivalPattern::kOnOff;
  udp.mean_gap_cycles = 12.5;
  udp.on_cycles = 20000;
  udp.off_cycles = 5000;
  udp.max_frames = 0;
  udp.frame_bytes = 1500;
  udp.flows = 16;
  udp.seed = 99;
  udp.src = "10.2.0.9";
  s.workloads.push_back(udp);

  WorkloadSpec esp;
  esp.name = "wan";
  esp.kind = WorkloadSpec::Kind::kEsp;
  esp.pattern = workload::ArrivalPattern::kPoisson;
  esp.mean_gap_cycles = 500;
  esp.max_frames = 1000;
  esp.src_port = 50000;  // non-default -> serialized
  esp.dst_port = 8080;
  esp.src = "198.51.100.9";
  esp.dst = "10.0.0.1";
  esp.spi = 8193;
  s.workloads.push_back(esp);

  WorkloadSpec kvs;
  kvs.name = "cache";
  kvs.kind = WorkloadSpec::Kind::kKvs;
  kvs.pattern = workload::ArrivalPattern::kConstantRate;
  kvs.mean_gap_cycles = 2500;
  kvs.max_frames = 64;
  kvs.wan_fraction = 1.0;
  s.workloads.push_back(kvs);

  InjectSpec udp_inj;
  udp_inj.at = 100;
  udp_inj.kind = InjectSpec::Kind::kUdp;
  udp_inj.src_port = 1234;  // non-default -> serialized
  udp_inj.dst_port = 53;
  s.injects.push_back(udp_inj);

  InjectSpec set_inj;
  set_inj.at = 200;
  set_inj.kind = InjectSpec::Kind::kKvsSet;
  set_inj.tenant = 1;
  set_inj.key = 7;
  set_inj.request_id = 1;
  set_inj.value_bytes = 64;
  s.injects.push_back(set_inj);

  InjectSpec get_inj;
  get_inj.at = 2000;
  get_inj.kind = InjectSpec::Kind::kKvsGet;
  get_inj.tenant = 1;
  get_inj.key = 7;
  get_inj.request_id = 2;
  s.injects.push_back(get_inj);

  InjectSpec esp_inj;
  esp_inj.at = 25000;
  esp_inj.kind = InjectSpec::Kind::kEsp;
  esp_inj.src = "198.51.100.9";
  esp_inj.spi = 8193;
  esp_inj.seq = 1001;
  esp_inj.tamper = true;
  s.injects.push_back(esp_inj);

  HostTxSpec tx;
  tx.at = 15000;
  tx.port = 2;
  tx.dst = "203.0.113.80";
  tx.src_port = 9001;
  tx.payload_bytes = 300;
  s.host_txs.push_back(tx);

  s.faults.seed = 7;
  s.faults.kill("aux0", 5000, "aux1").stall("dma", 1000, 200);

  s.program =
      "stage acl {\n"
      "  # drop discard-port traffic\n"
      "  match udp.dport == 9 -> drop\n"
      "}\n";
  return s;
}

TEST(ScenarioFormat, SerializeParseIsByteIdenticalFixpoint) {
  const Scenario s = make_full_scenario();
  const std::string text = s.to_string();

  std::string error;
  const auto parsed = Scenario::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->to_string(), text);

  // Spot-check that the reparse reconstructed the struct, not just the
  // text (kind-conditional keys are where round-trips usually break).
  EXPECT_EQ(parsed->name, "format_full");
  EXPECT_EQ(parsed->mode, SimMode::kStrictTick);
  EXPECT_EQ(parsed->tenant_slacks, s.tenant_slacks);
  EXPECT_TRUE(parsed->rmt_cache_enabled);
  EXPECT_EQ(parsed->rmt_cache_sets, 32u);
  EXPECT_EQ(parsed->rmt_cache_ways, 2u);
  EXPECT_EQ(parsed->aux_fixed_cycles, 1u);
  EXPECT_EQ(parsed->dma_bytes_per_cycle, 256.0);
  EXPECT_EQ(parsed->pool_reserve, 4096u);
  ASSERT_EQ(parsed->workloads.size(), 3u);
  EXPECT_EQ(parsed->workloads[0].max_frames, 0u);
  EXPECT_EQ(parsed->workloads[0].flows, 16u);
  EXPECT_EQ(parsed->workloads[1].src_port, 50000);
  EXPECT_EQ(parsed->workloads[1].spi, 8193u);
  EXPECT_EQ(parsed->workloads[2].wan_fraction, 1.0);
  ASSERT_EQ(parsed->injects.size(), 4u);
  EXPECT_EQ(parsed->injects[0].src_port, 1234);
  EXPECT_EQ(parsed->injects[1].value_bytes, 64u);
  EXPECT_TRUE(parsed->injects[3].tamper);
  ASSERT_EQ(parsed->host_txs.size(), 1u);
  EXPECT_EQ(parsed->host_txs[0].payload_bytes, 300u);
  EXPECT_EQ(parsed->faults.seed, 7u);
  EXPECT_EQ(parsed->faults.faults().size(), 2u);
  EXPECT_EQ(parsed->program, s.program);
}

TEST(ScenarioFormat, MinimalScenarioRoundTripsWithDefaults) {
  std::string error;
  const auto parsed = Scenario::parse("panic_scenario 1\nend\n", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->mesh_k, 4);
  EXPECT_EQ(parsed->budget_cycles, 50000u);
  EXPECT_EQ(parsed->mode, SimMode::kEventDriven);
  EXPECT_TRUE(parsed->workloads.empty());

  const std::string canonical = parsed->to_string();
  const auto again = Scenario::parse(canonical, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_string(), canonical);
}

TEST(ScenarioFormat, NonCanonicalInputNormalizes) {
  // Comments, blank lines, CRLF endings and leading whitespace all parse;
  // re-serialization is the same canonical text as the tidy version.
  const std::string messy =
      "# a hand-edited file\r\n"
      "panic_scenario 1\r\n"
      "\r\n"
      "  seed 5\r\n"
      "\tbudget 1234   \r\n"
      "inject at=0 port=0 kind=udp\r\n"
      "end\r\n";
  std::string error;
  const auto parsed = Scenario::parse(messy, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->seed, 5u);
  EXPECT_EQ(parsed->budget_cycles, 1234u);

  Scenario tidy;
  tidy.seed = 5;
  tidy.budget_cycles = 1234;
  tidy.injects.push_back(InjectSpec{});
  EXPECT_EQ(parsed->to_string(), tidy.to_string());
}

TEST(ScenarioFormat, LegacyPanicfuzzHeaderRejected) {
  std::string error;
  EXPECT_FALSE(
      Scenario::parse("panicfuzz 1\nseed 9\nend\n", &error).has_value());
  EXPECT_EQ(error, "line 1: expected 'panic_scenario 1' header");
}

TEST(ScenarioFormat, ProgramHeredocPreservesBodyVerbatim) {
  const std::string text =
      "panic_scenario 1\n"
      "program <<END\n"
      "stage acl {\n"
      "\n"
      "  # comment lines inside the heredoc are payload, not comments\n"
      "  match udp.dport == 9 -> drop\n"
      "}\n"
      "END\n"
      "end\n";
  std::string error;
  const auto parsed = Scenario::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->program,
            "stage acl {\n"
            "\n"
            "  # comment lines inside the heredoc are payload, not comments\n"
            "  match udp.dport == 9 -> drop\n"
            "}\n");
  const auto again = Scenario::parse(parsed->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->program, parsed->program);
}

TEST(ScenarioFormat, RmtCacheKnobRoundTrips) {
  std::string error;
  const auto off = Scenario::parse("panic_scenario 1\nrmt_cache off\nend\n",
                                   &error);
  ASSERT_TRUE(off.has_value()) << error;
  EXPECT_FALSE(off->rmt_cache_enabled);
  EXPECT_NE(off->to_string().find("rmt_cache off"), std::string::npos);

  const auto sized = Scenario::parse(
      "panic_scenario 1\nrmt_cache sets=8 ways=1\nend\n", &error);
  ASSERT_TRUE(sized.has_value()) << error;
  EXPECT_TRUE(sized->rmt_cache_enabled);
  EXPECT_EQ(sized->rmt_cache_sets, 8u);
  EXPECT_EQ(sized->rmt_cache_ways, 1u);
  const auto again = Scenario::parse(sized->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_string(), sized->to_string());

  // The default cache (on, 64x4) is canonical silence: no line emitted.
  EXPECT_EQ(Scenario{}.to_string().find("rmt_cache"), std::string::npos);
}

TEST(ScenarioFormat, PoolReserveRoundTrips) {
  std::string error;
  const auto parsed = Scenario::parse(
      "panic_scenario 1\npool_reserve 61440\nend\n", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->pool_reserve, 61440u);
  EXPECT_NE(parsed->to_string().find("pool_reserve 61440"),
            std::string::npos);
  // Default 0 is omitted.
  EXPECT_EQ(Scenario{}.to_string().find("pool_reserve"), std::string::npos);
}

TEST(ScenarioFormat, WorkloadFlowsRoundTripsAndBounds) {
  std::string error;
  const auto parsed = Scenario::parse(
      "panic_scenario 1\nworkload kind=udp flows=16 frames=10\nend\n",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->workloads.size(), 1u);
  EXPECT_EQ(parsed->workloads[0].flows, 16u);
  EXPECT_NE(parsed->to_string().find("flows=16"), std::string::npos);

  // Default 1024 is canonical silence.
  Scenario s;
  WorkloadSpec w;
  w.max_frames = 10;
  s.workloads.push_back(w);
  EXPECT_EQ(s.to_string().find("flows="), std::string::npos);
  EXPECT_TRUE(s.feasible());

  // flows must keep the source port inside [40000, 41024).
  s.workloads[0].flows = 0;
  EXPECT_FALSE(s.feasible());
  s.workloads[0].flows = 2000;
  EXPECT_FALSE(s.feasible());
  s.workloads[0].flows = 1024;
  EXPECT_TRUE(s.feasible());
}

TEST(ScenarioFormat, SchedPolicyAndWeightsRoundTrip) {
  Scenario s;
  s.sched_policy = engines::SchedSpec(engines::SchedKind::kWfq);
  s.sched_policy.set_weight(2, 1);
  s.sched_policy.set_weight(1, 4);
  const std::string text = s.to_string();
  // Weights serialize sorted by tenant, one line each.
  EXPECT_NE(text.find("sched wfq\nweight 1 4\nweight 2 1\n"),
            std::string::npos);

  std::string error;
  const auto parsed = Scenario::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->sched_policy, s.sched_policy);
  EXPECT_EQ(parsed->to_string(), text);

  // Every named built-in round-trips through its keyword.
  for (const char* name : {"slack", "fifo", "wfq", "stfq", "edf", "prio"}) {
    const auto p = Scenario::parse(
        "panic_scenario 1\nsched " + std::string(name) + "\nend\n", &error);
    ASSERT_TRUE(p.has_value()) << name << ": " << error;
    EXPECT_EQ(std::string(engines::to_string(p->sched_policy.kind)), name);
  }
}

TEST(ScenarioFormat, SchedRankHeredocRoundTrips) {
  const std::string text =
      "panic_scenario 1\n"
      "sched pifo rank=<<END\n"
      "# deadline with a per-tenant bump\n"
      "rank = created + slack + tenant * 7\n"
      "END\n"
      "end\n";
  std::string error;
  const auto parsed = Scenario::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->sched_policy.kind, engines::SchedKind::kCustom);
  EXPECT_EQ(parsed->sched_policy.rank_source,
            "# deadline with a per-tenant bump\n"
            "rank = created + slack + tenant * 7\n");
  // Canonical serialization reproduces the heredoc byte-identically.
  const auto again = Scenario::parse(parsed->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_string(), parsed->to_string());
  EXPECT_TRUE(parsed->feasible());

  // A source built in code without a trailing newline still serializes as
  // a well-formed heredoc.
  Scenario s;
  s.sched_policy = engines::SchedSpec(engines::SchedKind::kCustom);
  s.sched_policy.rank_source = "rank = slack";
  const auto reparsed = Scenario::parse(s.to_string(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->sched_policy.rank_source, "rank = slack\n");
}

// --- Schema violations: every failure carries "line N: reason". ---

std::string parse_error(const std::string& text) {
  std::string error;
  const auto parsed = Scenario::parse(text, &error);
  EXPECT_FALSE(parsed.has_value()) << "unexpectedly parsed:\n" << text;
  return error;
}

TEST(ScenarioFormat, UnknownKeyReportsLineNumber) {
  EXPECT_EQ(parse_error("panic_scenario 1\nbogus 3\nend\n"),
            "line 2: unknown key 'bogus'");
}

TEST(ScenarioFormat, BadScalarValueReportsLineNumber) {
  EXPECT_EQ(parse_error("panic_scenario 1\nmesh_k banana\nend\n"),
            "line 2: mesh_k: expected an integer, got 'banana'");
}

TEST(ScenarioFormat, CommentsAndBlanksCountTowardLineNumbers) {
  // The error is on physical line 4; comments/blanks must not shift it.
  EXPECT_EQ(parse_error("panic_scenario 1\n# comment\n\nsched bogus\nend\n"),
            "line 4: sched: expected slack | fifo | wfq | stfq | edf | prio | "
            "pifo rank=<<END ... END, got 'bogus'");
}

TEST(ScenarioFormat, BadRmtCacheValueReportsLineNumber) {
  EXPECT_EQ(parse_error("panic_scenario 1\nrmt_cache banana\nend\n"),
            "line 2: rmt_cache: expected on | off | sets=1..1048576 "
            "ways=1..1024, got 'banana'");
  EXPECT_EQ(
      parse_error("panic_scenario 1\nrmt_cache sets=8 frobs=2\nend\n"),
      "line 2: rmt_cache: unknown key 'frobs'");
}

TEST(ScenarioFormat, BadEnumValuesReportAlternatives) {
  EXPECT_EQ(parse_error("panic_scenario 1\ndrop sometimes\nend\n"),
            "line 2: drop: expected arrival | evict, got 'sometimes'");
  EXPECT_EQ(parse_error("panic_scenario 1\nmode warp\nend\n"),
            "line 2: mode: expected event | dense, got 'warp'");
}

TEST(ScenarioFormat, RemovedKernelSpellingsAreRejected) {
  // The sharded kernel and its shard count are gone; old files fail on
  // the line that names them instead of running under another kernel.
  EXPECT_EQ(parse_error("panic_scenario 1\nbudget 100\nthreads 2\nend\n"),
            "line 3: unknown key 'threads'");
  EXPECT_EQ(parse_error("panic_scenario 1\nmode parallel\nend\n"),
            "line 2: mode: expected event | dense, got 'parallel'");
}

TEST(ScenarioFormat, WrongHeaderFails) {
  EXPECT_EQ(parse_error("hello world\n"),
            "line 1: expected 'panic_scenario 1' header");
  EXPECT_NE(parse_error("").find("missing 'panic_scenario 1' header"),
            std::string::npos);
}

TEST(ScenarioFormat, MissingEndTerminatorFails) {
  EXPECT_EQ(parse_error("panic_scenario 1\nseed 1\n"),
            "line 2: missing 'end' terminator");
}

TEST(ScenarioFormat, UnterminatedProgramBlockFails) {
  EXPECT_EQ(parse_error("panic_scenario 1\nprogram <<END\nstage x {\n"),
            "line 2: program: missing END terminator");
}

TEST(ScenarioFormat, InjectWithoutKindFails) {
  EXPECT_EQ(parse_error("panic_scenario 1\ninject at=5\nend\n"),
            "line 2: inject: kind: missing (udp | kvs_get | kvs_set | esp)");
}

TEST(ScenarioFormat, BadWorkloadAddressFails) {
  EXPECT_EQ(
      parse_error("panic_scenario 1\nworkload src=999.1.2.3\nend\n"),
      "line 2: workload: src: expected an IPv4 address, got '999.1.2.3'");
}

TEST(ScenarioFormat, MalformedKeyValueTokenFails) {
  EXPECT_EQ(parse_error("panic_scenario 1\nhost_tx at\nend\n"),
            "line 2: host_tx: expected key=value, got 'at'");
}

TEST(ScenarioFormat, UnterminatedSchedRankBlockFails) {
  EXPECT_EQ(
      parse_error("panic_scenario 1\nsched pifo rank=<<END\nrank = slack\n"),
      "line 2: sched: missing END terminator");
}

TEST(ScenarioFormat, BadRankProgramSurfacesCompilerError) {
  // The rank compiler's own "line N: reason" (N into the heredoc) rides
  // inside the scenario parser's error for the opening line.
  EXPECT_EQ(parse_error("panic_scenario 1\nsched pifo rank=<<END\n"
                        "rank = bogus\nEND\nend\n"),
            "line 2: sched: rank program line 1: unknown variable 'bogus'");
  EXPECT_EQ(parse_error("panic_scenario 1\nsched pifo rank=<<END\n"
                        "flow.x = 1\nEND\nend\n"),
            "line 2: sched: rank program line 1: program never assigns "
            "'rank'");
}

TEST(ScenarioFormat, BadWeightLinesFail) {
  EXPECT_EQ(parse_error("panic_scenario 1\nweight banana\nend\n"),
            "line 2: weight: expected '<tenant> <value>', got 'banana'");
  EXPECT_EQ(parse_error("panic_scenario 1\nweight 70000 2\nend\n"),
            "line 2: weight: expected 0..65535, got '70000'");
  EXPECT_EQ(parse_error("panic_scenario 1\nweight 1 0\nend\n"),
            "line 2: weight: expected 1..4294967295, got '0'");
  EXPECT_EQ(
      parse_error("panic_scenario 1\nweight 1 4\nweight 1 2\nend\n"),
      "line 3: weight: duplicate tenant 1");
}

TEST(ScenarioFormat, BadFaultLineSurfacesFaultPlanError) {
  EXPECT_EQ(parse_error("panic_scenario 1\nfault kill aux0\nend\n"),
            "line 2: fault: missing @<cycle>");
}

// --- Every value once coerced is rejected, naming its line and key. ---

void expect_rejected(
    std::initializer_list<std::pair<const char*, const char*>> cases) {
  for (const auto& [line, error] : cases) {
    EXPECT_EQ(parse_error("panic_scenario 1\n" + std::string(line) +
                          "\nend\n"),
              error);
  }
}

TEST(ScenarioFormat, ScalarCoercionsAreRejected) {
  expect_rejected({
      {"mesh_k 4x", "line 2: mesh_k: expected an integer, got '4x'"},
      {"seed 0x2A", "line 2: seed: expected an integer, got '0x2A'"},
      {"seed -1", "line 2: seed: expected 0..2^64-1, got '-1'"},
      {"budget -7000", "line 2: budget: expected 1..2^64-1, got '-7000'"},
      {"default_slack 99999999999",
       "line 2: default_slack: expected 0..4294967295, got '99999999999'"},
      {"slack 1 -5", "line 2: slack: expected 0..4294967295, got '-5'"},
      {"slack 3 7junk", "line 2: slack: expected an integer, got '7junk'"},
      {"weight 2 -1", "line 2: weight: expected 1..4294967295, got '-1'"},
      {"queue_capacity 0",
       "line 2: queue_capacity: expected 1..65536, got '0'"},
      {"dma_contention nan",
       "line 2: dma_contention: expected a finite number, got 'nan'"},
      {"fault_seed 0x10",
       "line 2: fault_seed: expected an integer, got '0x10'"},
  });
}

TEST(ScenarioFormat, LineCoercionsAreRejected) {
  expect_rejected({
      {"workload gap=nan",
       "line 2: workload: gap: expected a finite number, got 'nan'"},
      {"workload tenant=70000",
       "line 2: workload: tenant: expected 0..65535, got '70000'"},
      {"workload dport=65537",
       "line 2: workload: dport: expected 0..65535, got '65537'"},
      {"workload spi=0x10 flows=0",
       "line 2: workload: flows: expected 1..1024, got '0'"},
      {"inject kind=udp sport=-1",
       "line 2: inject: sport: expected 0..65535, got '-1'"},
      {"inject kind=esp tamper=2",
       "line 2: inject: tamper: expected 0 | 1, got '2'"},
      {"fault kill aux0 @-5",
       "line 2: fault: bad @-5: expected 0..2^64-1, got '-5'"},
      {"fault degrade dma @100 x=nan",
       "line 2: fault: bad x=nan: expected a finite number, got 'nan'"},
      {"fault corrupt dma @100 p=-2",
       "line 2: fault: bad p=-2: expected 0..1, got '-2'"},
  });
}

TEST(ScenarioFormat, AllocationSizesAreCapped) {
  // Each of these used to end in std::bad_alloc under a 2 GB limit.
  expect_rejected({
      {"mesh_k 100000", "line 2: mesh_k: expected 2..32, got '100000'"},
      {"pool_reserve 100000000000",
       "line 2: pool_reserve: expected 0..262144, got '100000000000'"},
      {"queue_capacity 100000000000",
       "line 2: queue_capacity: expected 1..65536, got '100000000000'"},
      {"rmt_input_queue 100000000000",
       "line 2: rmt_input_queue: expected 1..65536, got '100000000000'"},
  });
  // A scenario built in code is held to the same declaration.
  Scenario s;
  s.pool_reserve = kMaxPoolReserve + 1;
  std::string why;
  EXPECT_FALSE(s.feasible(false, &why));
  EXPECT_EQ(why, "pool_reserve: expected 0..262144, got '262145'");
}

TEST(ScenarioFormat, InfeasibleScenariosNameTheField) {
  std::string why;
  Scenario s;
  s.eth_ports = 40;
  EXPECT_FALSE(s.feasible(false, &why));
  EXPECT_EQ(why,
            "mesh_k: 16 tiles, but 11 fixed engines + eth_ports + "
            "rmt_engines + aux_engines + spare_tiles need 53");

  s = Scenario{};
  WorkloadSpec w;
  w.mean_gap_cycles = 0.0;
  s.workloads.push_back(w);
  EXPECT_FALSE(s.feasible(false, &why));
  EXPECT_EQ(why, "workload 0: gap: expected > 0, got '0'");

  s.workloads[0] = WorkloadSpec{};
  s.workloads[0].port = 2;
  EXPECT_FALSE(s.feasible(false, &why));
  EXPECT_EQ(why, "workload 0: port: expected 0..eth_ports-1 = 1, got 2");

  s.workloads[0] = WorkloadSpec{};
  s.workloads[0].max_frames = 0;
  EXPECT_TRUE(s.feasible(false, &why));
  EXPECT_FALSE(s.feasible(/*strict_finite=*/true, &why));
  EXPECT_EQ(why, "workload 0: frames: unlimited in a run that must end");

  s = Scenario{};
  s.sched_policy.set_weight(3, 0);
  EXPECT_FALSE(s.feasible(false, &why));
  EXPECT_EQ(why, "weight 3: expected 1..4294967295, got 0");
}

TEST(ScenarioFormat, DoublesPrintBackExactly) {
  // Six significant digits printed these as 2.12346, 0.123457 and
  // 1.23457, so a saved replay ran a different scenario.
  const std::string text =
      "panic_scenario 1\n"
      "dma_contention 0.123456789\n"
      "workload gap=2.123456789 frames=5\n"
      "fault degrade dma @100 x=1.23456789\n"
      "end\n";
  std::string error;
  const auto parsed = Scenario::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const std::string printed = parsed->to_string();
  for (const char* exact :
       {"dma_contention 0.123456789\n", " gap=2.123456789 ", " x=1.23456789"}) {
    EXPECT_NE(printed.find(exact), std::string::npos) << printed;
  }
  EXPECT_EQ(Scenario::parse(printed), parsed);
}

}  // namespace
}  // namespace panic::scenario
