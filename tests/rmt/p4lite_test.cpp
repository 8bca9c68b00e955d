#include "rmt/p4lite.h"

#include <gtest/gtest.h>

#include "net/packet.h"

namespace panic::rmt {
namespace {

const Ipv4Addr kSrc(10, 0, 0, 1);
const Ipv4Addr kDst(10, 0, 0, 2);

MessagePtr packet(std::vector<std::uint8_t> frame) {
  auto msg = make_message(MessageKind::kPacket);
  msg->data = std::move(frame);
  return msg;
}

const SymbolTable kSymbols = {{"ipsec_rx", 6}, {"dma", 4}, {"kvs", 8}};

TEST(P4Lite, FieldNameRoundTrip) {
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const auto f = static_cast<Field>(i);
    const auto back = field_from_name(field_name(f));
    ASSERT_TRUE(back.has_value()) << field_name(f);
    EXPECT_EQ(*back, f);
  }
  EXPECT_FALSE(field_from_name("no.such.field").has_value());
}

TEST(P4Lite, CompilesMinimalProgram) {
  const auto program = compile_p4lite("parser default;", kSymbols);
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ(program->stages.size(), 0u);
  EXPECT_GT(program->parser.num_states(), 0u);
}

TEST(P4Lite, RequiresParserDeclaration) {
  std::string error;
  const auto program =
      compile_p4lite("stage s { }", kSymbols, &error);
  EXPECT_FALSE(program.has_value());
  EXPECT_NE(error.find("parser"), std::string::npos);
}

TEST(P4Lite, ExactTableWithDefault) {
  const auto program = compile_p4lite(R"(
    parser default;
    stage slack {
      table tenant_slack exact(kvs.tenant) {
        1 -> set_slack(10);
        2 -> set_slack(1000);
        default -> set_slack(500);
      }
    }
  )",
                                      kSymbols);
  ASSERT_TRUE(program.has_value());
  ASSERT_EQ(program->stages.size(), 1u);
  ASSERT_EQ(program->stages[0].tables.size(), 1u);
  EXPECT_EQ(program->stages[0].tables[0].size(), 2u);
  EXPECT_NE(program->stages[0].tables[0].default_action(), nullptr);
}

TEST(P4Lite, CompiledProgramSteersTraffic) {
  auto program = compile_p4lite(R"(
    parser default;
    stage classify {
      table route ternary(valid_esp, meta.msg_kind) {
        (1, 0)   prio 100 -> set_slack(7), chain(ipsec_rx);
        (0/0, 0) prio 10  -> lb(meta.queue, ipv4.src, l4.sport, 8),
                             chain(dma);
      }
    }
  )",
                                kSymbols);
  ASSERT_TRUE(program.has_value());
  Pipeline pipeline(
      std::make_shared<RmtProgram>(std::move(*program)));

  auto esp = packet(FrameBuilder()
                        .eth(*MacAddr::parse("02:00:00:00:00:01"),
                             *MacAddr::parse("02:00:00:00:00:02"))
                        .ipv4(kSrc, kDst)
                        .esp(0x99, 1)
                        .payload_size(64)
                        .build());
  pipeline.process(*esp);
  ASSERT_EQ(esp->chain.total_hops(), 1u);
  EXPECT_EQ(esp->chain.hops()[0].engine, EngineId{6});
  EXPECT_EQ(esp->chain.hops()[0].slack, 7u);

  auto plain = packet(frames::min_udp(kSrc, kDst));
  const auto result = pipeline.process(*plain);
  ASSERT_EQ(plain->chain.total_hops(), 1u);
  EXPECT_EQ(plain->chain.hops()[0].engine, EngineId{4});
  EXPECT_LT(result.queue, 8u);
}

TEST(P4Lite, LpmWithDottedQuadsAndPrefixes) {
  auto program = compile_p4lite(R"(
    parser default;
    stage wan {
      table wan_by_dst lpm(ipv4.dst) {
        203.0.113.0/24 -> set(meta.from_wan, 1);
        10.0.0.0/8     -> set(meta.from_wan, 0);
      }
    }
  )",
                                kSymbols);
  ASSERT_TRUE(program.has_value());
  const auto& table = program->stages[0].tables[0];

  Phv phv;
  phv.set_parsed(Field::kIpDst, Ipv4Addr(203, 0, 113, 50).value());
  const Action* a = table.lookup(phv);
  ASSERT_NE(a, nullptr);
  ChainHeader chain;
  RegisterFile regs;
  ActionContext ctx{phv, chain, regs};
  apply_action(*a, ctx);
  EXPECT_EQ(phv.get(Field::kMetaFromWan), 1u);

  phv.set_parsed(Field::kIpDst, Ipv4Addr(10, 1, 2, 3).value());
  ASSERT_NE(table.lookup(phv), nullptr);
}

TEST(P4Lite, DropAndClearChain) {
  auto program = compile_p4lite(R"(
    parser default;
    stage acl {
      table deny exact(l4.dport) {
        666 -> clear_chain, drop;
      }
    }
  )",
                                kSymbols);
  ASSERT_TRUE(program.has_value());
  Pipeline pipeline(std::make_shared<RmtProgram>(std::move(*program)));
  auto evil = packet(frames::min_udp(kSrc, kDst, 1234, 666));
  EXPECT_TRUE(pipeline.process(*evil).drop);
  auto fine = packet(frames::min_udp(kSrc, kDst, 1234, 80));
  EXPECT_FALSE(pipeline.process(*fine).drop);
}

TEST(P4Lite, ChainFromField) {
  auto program = compile_p4lite(R"(
    parser default;
    stage out {
      table egress ternary(meta.msg_kind) {
        0 -> chain_from(meta.egress_port);
      }
    }
  )",
                                kSymbols);
  ASSERT_TRUE(program.has_value());
  Pipeline pipeline(std::make_shared<RmtProgram>(std::move(*program)));
  auto msg = packet(frames::min_udp(kSrc, kDst));
  msg->egress_port = EngineId{3};
  pipeline.process(*msg);
  ASSERT_EQ(msg->chain.total_hops(), 1u);
  EXPECT_EQ(msg->chain.hops()[0].engine, EngineId{3});
}

TEST(P4Lite, RegAddCounter) {
  auto program = compile_p4lite(R"(
    parser default;
    stage count {
      table counters ternary(meta.msg_kind) {
        0/0 -> reg_add(meta.cache_hint, 2, kvs.tenant, 1);
      }
    }
  )",
                                kSymbols);
  ASSERT_TRUE(program.has_value());
  Pipeline pipeline(std::make_shared<RmtProgram>(std::move(*program)));
  auto a = packet(frames::kvs_get(kSrc, kDst, 5, 1, 1));
  pipeline.process(*a);
  pipeline.process(*a);
  EXPECT_EQ(pipeline.registers().read(2, 5), 2u);
}

TEST(P4Lite, AppendStagesToExistingProgram) {
  RmtProgram program;
  program.parser = make_default_parser();
  std::string error;
  ASSERT_TRUE(append_p4lite_stages(program, R"(
    stage one { table t exact(l4.dport) { 80 -> set_slack(1); } }
    stage two { table u exact(l4.dport) { 443 -> set_slack(2); } }
  )",
                                   kSymbols, &error))
      << error;
  EXPECT_EQ(program.stages.size(), 2u);
}

TEST(P4Lite, ErrorsCarryLineNumbers) {
  std::string error;
  const auto program = compile_p4lite(R"(
    parser default;
    stage s {
      table t exact(bogus.field) {
      }
    }
  )",
                                      kSymbols, &error);
  EXPECT_FALSE(program.has_value());
  EXPECT_NE(error.find("p4lite:4"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus.field"), std::string::npos);
}

TEST(P4Lite, RejectsUnknownEngine) {
  std::string error;
  const auto program = compile_p4lite(R"(
    parser default;
    stage s {
      table t exact(l4.dport) { 80 -> chain(mystery); }
    }
  )",
                                      kSymbols, &error);
  EXPECT_FALSE(program.has_value());
  EXPECT_NE(error.find("mystery"), std::string::npos);
}

TEST(P4Lite, RejectsArityMismatch) {
  std::string error;
  const auto program = compile_p4lite(R"(
    parser default;
    stage s {
      table t ternary(valid_esp, meta.msg_kind) { 1 -> drop; }
    }
  )",
                                      kSymbols, &error);
  EXPECT_FALSE(program.has_value());
  EXPECT_NE(error.find("arity"), std::string::npos);
}

TEST(P4Lite, RejectsLpmWithMultipleKeys) {
  std::string error;
  const auto program = compile_p4lite(R"(
    parser default;
    stage s {
      table t lpm(ipv4.dst, ipv4.src) { 0/0 -> drop; }
    }
  )",
                                      kSymbols, &error);
  EXPECT_FALSE(program.has_value());
}

TEST(P4Lite, CommentsAreIgnored) {
  const auto program = compile_p4lite(R"(
    # hash comment
    parser default;   // C++ comment
    stage s {
      table t exact(l4.dport) {
        80 -> set_slack(1);  # trailing
      }
    }
  )",
                                      kSymbols);
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ(program->stages.size(), 1u);
}

TEST(P4Lite, HexNumbers) {
  auto program = compile_p4lite(R"(
    parser default;
    stage s {
      table t exact(esp.spi) { 0x1001 -> set_slack(3); }
    }
  )",
                                kSymbols);
  ASSERT_TRUE(program.has_value());
  Phv phv;
  phv.set_parsed(Field::kEspSpi, 0x1001);
  EXPECT_NE(program->stages[0].tables[0].lookup(phv), nullptr);
}

TEST(P4Lite, RejectsOutOfRangeLiterals) {
  // Dotted quads go through Ipv4Addr::parse, every other literal through
  // the shared codec: nothing wraps.
  std::string error;
  EXPECT_FALSE(compile_p4lite(R"(
    parser default;
    stage s {
      table t exact(ipv4.dst) { 10.0.0.300 -> drop; }
    }
  )",
                              kSymbols, &error)
                   .has_value());
  EXPECT_EQ(error, "p4lite:4: bad number: expected an IPv4 address, got "
                   "'10.0.0.300'");
  EXPECT_FALSE(compile_p4lite(R"(
    parser default;
    stage s {
      table t exact(l4.dport) { 18446744073709551617 -> drop; }
    }
  )",
                              kSymbols, &error)
                   .has_value());
  EXPECT_EQ(error, "p4lite:4: bad number: expected 0..2^64-1, got "
                   "'18446744073709551617'");
}

}  // namespace
}  // namespace panic::rmt
