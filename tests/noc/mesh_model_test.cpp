#include "noc/mesh_model.h"

#include <gtest/gtest.h>

#include <ostream>

namespace panic::noc {
namespace {

// Table 3 of the paper, row by row.
struct Table3Case {
  double rate_gbps;
  std::uint32_t width;
  int k;
  double bisection_gbps;
  double chain_len;
};

// The row's label, which ctest puts in the test name.
void PrintTo(const Table3Case& c, std::ostream* os) {
  *os << c.rate_gbps << "G_w" << c.width << "_k" << c.k;
}

class Table3 : public ::testing::TestWithParam<Table3Case> {};

TEST_P(Table3, MatchesPaper) {
  const auto& expected = GetParam();
  MeshModelInput in;
  in.k = expected.k;
  in.channel_bits = expected.width;
  in.freq = Frequency::megahertz(500);
  in.line_rate = DataRate::gbps(expected.rate_gbps);
  in.ports = 2;

  const auto r = evaluate_mesh_model(in);
  EXPECT_DOUBLE_EQ(r.bisection_bw.gigabits_per_second(),
                   expected.bisection_gbps);
  EXPECT_NEAR(r.chain_length, expected.chain_len, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table3,
    ::testing::Values(Table3Case{40, 64, 6, 384, 5.60},
                      Table3Case{40, 64, 8, 512, 8.80},
                      Table3Case{100, 128, 6, 768, 3.68},
                      Table3Case{100, 128, 8, 1024, 6.24}));

TEST(MeshModel, ChannelBandwidth) {
  MeshModelInput in;
  in.channel_bits = 64;
  in.freq = Frequency::megahertz(500);
  const auto r = evaluate_mesh_model(in);
  EXPECT_DOUBLE_EQ(r.channel_bw.gigabits_per_second(), 32.0);
}

TEST(MeshModel, CapacityIsTwiceBisection) {
  for (int k : {4, 6, 8, 10}) {
    MeshModelInput in;
    in.k = k;
    const auto r = evaluate_mesh_model(in);
    EXPECT_DOUBLE_EQ(r.capacity.bits_per_second(),
                     2.0 * r.bisection_bw.bits_per_second());
  }
}

TEST(MeshModel, ChainLengthNeverNegative) {
  MeshModelInput in;
  in.k = 2;
  in.channel_bits = 8;
  in.line_rate = DataRate::gbps(400);
  in.ports = 8;
  const auto r = evaluate_mesh_model(in);
  EXPECT_GE(r.chain_length, 0.0);
}

TEST(MeshModel, Table3RowsHelper) {
  const auto rows = table3_rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].k, 6);
  EXPECT_EQ(rows[1].k, 8);
  EXPECT_EQ(rows[0].channel_bits, 64u);
  EXPECT_EQ(rows[2].channel_bits, 128u);
}

TEST(MeshModel, FormatRow) {
  const auto rows = table3_rows();
  const auto r = evaluate_mesh_model(rows[0]);
  const auto s = format_table3_row(rows[0], r);
  EXPECT_NE(s.find("40Gbps x2"), std::string::npos);
  EXPECT_NE(s.find("384Gbps"), std::string::npos);
  EXPECT_NE(s.find("5.60"), std::string::npos);
}

}  // namespace
}  // namespace panic::noc
