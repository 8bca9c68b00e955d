#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/line_rate.h"
#include "analysis/report.h"

namespace panic::analysis {
namespace {

// Table 2 of the paper (values rounded there to the nearest 10 Mpps).
// gtest names each case by the bytes of its parameter, so the struct must
// have no padding: uninitialized padding made the names vary between runs.
struct Table2Case {
  double rate_gbps;
  std::int64_t ports;
  double paper_mpps;
};
static_assert(sizeof(Table2Case) == 3 * 8);

class Table2 : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2, MatchesPaperWithinRounding) {
  const auto& expected = GetParam();
  LineRateInput in;
  in.line_rate = DataRate::gbps(expected.rate_gbps);
  in.ports = static_cast<int>(expected.ports);
  const auto r = evaluate_line_rate(in);
  // The paper rounds (e.g. 238.1 -> 240, 297.6 -> 300): accept 2%.
  EXPECT_NEAR(r.total_pps / 1e6, expected.paper_mpps,
              expected.paper_mpps * 0.02);
}

INSTANTIATE_TEST_SUITE_P(PaperRows, Table2,
                         ::testing::Values(Table2Case{40, 2, 240},
                                           Table2Case{40, 4, 480},
                                           Table2Case{100, 1, 300},
                                           Table2Case{100, 2, 600}));

TEST(LineRate, PerPortDirection) {
  LineRateInput in;
  in.line_rate = DataRate::gbps(100);
  in.ports = 1;
  const auto r = evaluate_line_rate(in);
  EXPECT_NEAR(r.pps_per_port_per_direction / 1e6, 148.8, 0.1);
  EXPECT_DOUBLE_EQ(r.total_pps, r.pps_per_port_per_direction * 2);
}

TEST(LineRate, RmtPipelineLaw) {
  // §4.2: "Two 500MHz pipelines can process packets at a rate of
  // 1000Mpps."
  EXPECT_DOUBLE_EQ(rmt_pipeline_pps(Frequency::megahertz(500), 2), 1e9);
}

TEST(LineRate, TwoPipelinesSustainTwoPort100G) {
  // §4.2: with two RMT pipelines at 500 MHz, PANIC can forward every
  // packet through the pipeline at least once at line rate for a two-port
  // 100G NIC (600 Mpps needed, 1000 Mpps available) ...
  LineRateInput in;
  in.line_rate = DataRate::gbps(100);
  in.ports = 2;
  EXPECT_TRUE(rmt_sustains_line_rate(Frequency::megahertz(500), 2, in, 1.0));
  // ... but NOT if every packet also needed a pipeline pass per offload
  // hop (the motivation for the lightweight lookup tables): two passes
  // would need 1200 Mpps.
  EXPECT_FALSE(rmt_sustains_line_rate(Frequency::megahertz(500), 2, in, 2.0));
}

TEST(LineRate, Table2RowsHelper) {
  EXPECT_EQ(table2_rows().size(), 4u);
}

TEST(LineRate, FormatRow) {
  const auto rows = table2_rows();
  const auto r = evaluate_line_rate(rows[0]);
  const auto s = format_table2_row(rows[0], r);
  EXPECT_NE(s.find("40Gbps"), std::string::npos);
  EXPECT_NE(s.find("Mpps"), std::string::npos);
}

TEST(Report, RendersAlignedTable) {
  Report report({"name", "value"});
  report.add_row({"alpha", "1"});
  report.add_row({"b", "22222"});
  const auto out = report.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Every line has the same column start for "value".
  const auto header_pos = out.find("value");
  const auto row_pos = out.find("22222");
  EXPECT_EQ(out.rfind('\n', row_pos) + header_pos - out.rfind('\n', header_pos),
            row_pos);
}

TEST(Report, ShortRowsPadded) {
  Report report({"a", "b", "c"});
  report.add_row({"x"});
  EXPECT_NO_THROW(report.render());
}

TEST(Strf, Formats) {
  EXPECT_EQ(strf("%d-%s", 42, "x"), "42-x");
}

}  // namespace
}  // namespace panic::analysis
