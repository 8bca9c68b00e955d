// RankProgram compiler: built-in sources, fast-path introspection, state
// commit semantics, and the exact "line N: reason" negative diagnostics
// the scenario parser surfaces verbatim.
#include "engines/rank_program.h"

#include <gtest/gtest.h>

#include <string>

namespace panic::engines {
namespace {

std::string compile_error(const std::string& source) {
  std::string error;
  auto p = RankProgram::compile(source, &error);
  EXPECT_FALSE(p.has_value()) << source << " compiled unexpectedly";
  return error;
}

TEST(RankProgram, EveryBuiltinCompiles) {
  for (const SchedKind kind :
       {SchedKind::kSlack, SchedKind::kFifo, SchedKind::kWfq,
        SchedKind::kStfq, SchedKind::kEdf, SchedKind::kPrio}) {
    std::string error;
    EXPECT_NE(RankProgram::compile_spec(SchedSpec(kind), &error), nullptr)
        << to_string(kind) << ": " << error;
  }
}

TEST(RankProgram, LegacyFastPathsDetected) {
  std::string error;
  const auto slack = RankProgram::compile_spec(SchedKind::kSlack, &error);
  ASSERT_NE(slack, nullptr);
  EXPECT_TRUE(slack->trivial_slack());
  EXPECT_FALSE(slack->stateful());

  const auto fifo = RankProgram::compile_spec(SchedKind::kFifo, &error);
  ASSERT_NE(fifo, nullptr);
  std::uint64_t value = 99;
  EXPECT_TRUE(fifo->trivial_const(&value));
  EXPECT_EQ(value, 0u);

  const auto wfq = RankProgram::compile_spec(SchedKind::kWfq, &error);
  ASSERT_NE(wfq, nullptr);
  EXPECT_FALSE(wfq->trivial_slack());
  EXPECT_FALSE(wfq->trivial_const(nullptr));
  EXPECT_TRUE(wfq->stateful());
}

TEST(RankProgram, WfqComputesVirtualStartTimes) {
  SchedSpec spec(SchedKind::kWfq);
  spec.set_weight(1, 2);
  std::string error;
  const auto p = RankProgram::compile_spec(spec, &error);
  ASSERT_NE(p, nullptr) << error;

  RankState state;
  std::vector<std::uint64_t> scratch;
  RankInputs in;
  in.tenant = 1;
  in.bytes = 100;
  in.weight = 2;
  // start = max(finish, vtime) = 0; finish = 0 + 100*1024/2 = 51200.
  EXPECT_EQ(p->rank_and_commit(in, state, scratch), 0u);
  EXPECT_EQ(p->rank_and_commit(in, state, scratch), 51200u);
  EXPECT_EQ(p->rank_and_commit(in, state, scratch), 102400u);
  // A second tenant starts fresh at the current vtime.
  in.tenant = 2;
  in.weight = 1;
  in.vtime = 60000;
  EXPECT_EQ(p->rank_and_commit(in, state, scratch), 60000u);
}

TEST(RankProgram, EvaluateDoesNotCommit) {
  // Drop semantics: evaluate alone must leave the state untouched, so a
  // message rejected at a full queue does not advance finish times.
  std::string error;
  const auto p = RankProgram::compile_spec(SchedKind::kStfq, &error);
  ASSERT_NE(p, nullptr);

  RankState state;
  std::vector<std::uint64_t> scratch;
  RankInputs in;
  in.tenant = 7;
  in.bytes = 64;
  EXPECT_EQ(p->evaluate(in, state, scratch), 0u);
  EXPECT_EQ(p->evaluate(in, state, scratch), 0u);  // no finish advanced
  EXPECT_TRUE(state.flows.empty());

  p->commit(state, scratch, in.tenant);
  EXPECT_EQ(p->evaluate(in, state, scratch), 64u);  // now it did
}

TEST(RankProgram, QueueStateIsGlobal) {
  std::string error;
  auto p = RankProgram::compile("queue.n = queue.n + 1; rank = queue.n\n",
                                &error);
  ASSERT_TRUE(p.has_value()) << error;
  RankState state;
  std::vector<std::uint64_t> scratch;
  RankInputs a;
  a.tenant = 1;
  RankInputs b;
  b.tenant = 2;  // different tenant, same queue counter
  EXPECT_EQ(p->rank_and_commit(a, state, scratch), 1u);
  EXPECT_EQ(p->rank_and_commit(b, state, scratch), 2u);
}

TEST(RankProgram, StatementsShareLineAcrossSemicolons) {
  // Both statements of a one-line program report line 1.
  EXPECT_EQ(compile_error("rank = 1; flow.x = bogus\n"),
            "line 1: unknown variable 'bogus'");
}

TEST(RankProgram, CommentsDoNotHideOrSplitStatements) {
  std::string error;
  // A ';' inside a comment is not a statement separator, and a comment
  // line still counts toward line numbers.
  auto p = RankProgram::compile(
      "# header comment; with a semicolon\n"
      "rank = slack  // trailing\n",
      &error);
  EXPECT_TRUE(p.has_value()) << error;
  EXPECT_EQ(compile_error("# comment\n\nrank = frobs\n"),
            "line 3: unknown variable 'frobs'");
}

TEST(RankProgram, NegativeDiagnostics) {
  EXPECT_EQ(compile_error("slack = 1\nrank = 1\n"),
            "line 1: cannot assign read-only input 'slack'");
  EXPECT_EQ(compile_error("rank = 1\nvtime = 2\n"),
            "line 2: cannot assign read-only input 'vtime'");
  EXPECT_EQ(compile_error("foo = 1\n"),
            "line 1: can only assign 'rank', 'flow.<name>' or "
            "'queue.<name>' (got 'foo')");
  EXPECT_EQ(compile_error("rank 1\n"), "line 1: expected '=' after 'rank'");
  // Messages carry no flow id and flow.* state is always per tenant, so
  // neither a `flow` input nor a `key` statement exists.
  EXPECT_EQ(compile_error("rank = flow\n"),
            "line 1: unknown variable 'flow'");
  EXPECT_EQ(compile_error("key tenant\nrank = 1\n"),
            "line 1: can only assign 'rank', 'flow.<name>' or "
            "'queue.<name>' (got 'key')");
  EXPECT_EQ(compile_error("rank = 1 2\n"),
            "line 1: unexpected trailing token '2'");
  EXPECT_EQ(compile_error("flow.x = flow.x + 1\n"),
            "line 1: program never assigns 'rank'");
  EXPECT_EQ(compile_error(""), "line 1: program never assigns 'rank'");
  EXPECT_EQ(compile_error("rank = (slack\n"), "line 1: expected ')'");
}

TEST(RankProgram, EmptyCustomSpecFails) {
  SchedSpec spec(SchedKind::kCustom);
  std::string error;
  EXPECT_EQ(RankProgram::compile_spec(spec, &error), nullptr);
  EXPECT_EQ(error, "line 1: empty rank program");
}

TEST(SchedSpecConversions, LegacyPolicyStillCompilesEverywhere) {
  // The implicit SchedKind -> SchedSpec conversion call sites rely on.
  const SchedSpec from_kind = SchedKind::kEdf;
  EXPECT_EQ(from_kind.kind, SchedKind::kEdf);
  EXPECT_EQ(from_kind.source(), builtin_rank_source(SchedKind::kEdf));
}

TEST(SchedSpecConversions, WeightTable) {
  SchedSpec spec(SchedKind::kWfq);
  EXPECT_EQ(spec.weight_for(5), 1u);  // absent = 1
  spec.set_weight(5, 8);
  spec.set_weight(2, 3);
  EXPECT_EQ(spec.weight_for(5), 8u);
  EXPECT_EQ(spec.weight_for(2), 3u);
  // Kept sorted by tenant for canonical serialization.
  ASSERT_EQ(spec.weights.size(), 2u);
  EXPECT_EQ(spec.weights[0].first, 2u);
  EXPECT_EQ(spec.weights[1].first, 5u);
}

}  // namespace
TEST(RankProgram, OutOfRangeLiteralIsACompileError) {
  // Once wrapped to 1 by the lexer's digit loop.
  EXPECT_EQ(compile_error("rank = 18446744073709551617\n"),
            "line 1: bad number: expected 0..2^64-1, got "
            "'18446744073709551617'");
  EXPECT_EQ(compile_error("rank = 4x\n"),
            "line 1: bad number: expected an integer or 0x-hex, got '4x'");
}

}  // namespace panic::engines
