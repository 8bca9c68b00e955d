// The number codec: whole-token reads with sign, range and finiteness
// checks, hex only on request, and exact shortest double printing.
#include "common/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.h"

namespace panic::codec {
namespace {

template <typename T>
std::string read_error(const std::string& text, Range<T> range = {},
                       bool hex = false) {
  T v{};
  std::string why;
  EXPECT_FALSE(read(text, &v, &why, range, hex)) << "read '" << text << "'";
  return why;
}

TEST(Codec, ReadsWholeTokensOnly) {
  int i = 0;
  EXPECT_TRUE(read("42", &i, nullptr));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(read("-7", &i, nullptr));
  EXPECT_EQ(i, -7);
  EXPECT_EQ(read_error<int>("4x"), "expected an integer, got '4x'");
  EXPECT_EQ(read_error<int>(""), "expected an integer, got ''");
  EXPECT_EQ(read_error<int>(" 4"), "expected an integer, got ' 4'");
  EXPECT_EQ(read_error<int>("+4"), "expected an integer, got '+4'");
  EXPECT_EQ(read_error<int>("1.5"), "expected an integer, got '1.5'");
}

TEST(Codec, RejectsSignAndRangeInsteadOfWrapping) {
  EXPECT_EQ(read_error<std::uint64_t>("-1"),
            "expected 0..2^64-1, got '-1'");
  EXPECT_EQ(read_error<std::uint64_t>("18446744073709551616"),
            "expected 0..2^64-1, got '18446744073709551616'");
  EXPECT_EQ(read_error<std::uint16_t>("70000"),
            "expected 0..65535, got '70000'");
  EXPECT_EQ(read_error<std::uint32_t>("99999999999"),
            "expected 0..4294967295, got '99999999999'");
  EXPECT_EQ(read_error<int>("4294967296"),
            "expected -2147483648..2147483647, got '4294967296'");
  EXPECT_EQ(read_error<int>("0", Range<int>{2, 32}),
            "expected 2..32, got '0'");
  std::uint64_t max = 0;
  EXPECT_TRUE(read("18446744073709551615", &max, nullptr));
  EXPECT_EQ(max, std::numeric_limits<std::uint64_t>::max());
}

TEST(Codec, HexOnlyWhereTheSyntaxSaysSo) {
  std::uint32_t v = 0;
  EXPECT_EQ(read_error<std::uint32_t>("0x2A"),
            "expected an integer, got '0x2A'");
  EXPECT_TRUE(read("0x2A", &v, nullptr, {}, /*hex=*/true));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(read("42", &v, nullptr, {}, /*hex=*/true));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(read_error<std::uint32_t>("0x", {}, true),
            "expected an integer or 0x-hex, got '0x'");
  EXPECT_EQ(read_error<std::int64_t>("0x-5", {}, true),
            "expected an integer or 0x-hex, got '0x-5'");
  EXPECT_EQ(read_error<std::uint32_t>("0x100000000", {}, true),
            "expected 0..4294967295, got '0x100000000'");
}

TEST(Codec, DoublesMustBeFinite) {
  double d = 0.0;
  EXPECT_TRUE(read("12.5", &d, nullptr));
  EXPECT_EQ(d, 12.5);
  EXPECT_TRUE(read("1e+06", &d, nullptr));
  EXPECT_EQ(d, 1e6);
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "infinity", "1e400"}) {
    EXPECT_EQ(read_error<double>(bad),
              "expected a finite number, got '" + std::string(bad) + "'");
  }
  EXPECT_EQ(read_error<double>("2.5x"), "expected a number, got '2.5x'");
  EXPECT_EQ(read_error<double>("0x10"), "expected a number, got '0x10'");
  const Range<double> positive{0.0, std::numeric_limits<double>::max(), true};
  EXPECT_EQ(read_error<double>("0", positive), "expected > 0, got '0'");
  EXPECT_EQ(read_error<double>("-2", Range<double>{0.0, 1.0}),
            "expected 0..1, got '-2'");
  EXPECT_EQ(read_error<double>("-1", Range<double>{0.0}),
            "expected >= 0, got '-1'");
}

TEST(Codec, DoublesPrintShortestExactText) {
  // Values that six significant digits already print exactly keep that
  // text (the default stream rendering)...
  EXPECT_EQ(write(500.0), "500");
  EXPECT_EQ(write(12.5), "12.5");
  EXPECT_EQ(write(0.0), "0");
  EXPECT_EQ(write(0.1), "0.1");
  EXPECT_EQ(write(1e6), "1e+06");
  EXPECT_EQ(write(33.5), "33.5");
  // ...and the rest gain exactly the digits they need.
  EXPECT_EQ(write(2.123456789), "2.123456789");
  EXPECT_EQ(write(0.123456789), "0.123456789");
  EXPECT_EQ(write(1.23456789), "1.23456789");
  EXPECT_EQ(write(1.0 / 3.0), "0.3333333333333333");

  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real(-1e9, 1e9) * rng.uniform01();
    double back = 0.0;
    ASSERT_TRUE(read(write(v), &back, nullptr)) << write(v);
    EXPECT_EQ(back, v) << write(v);
  }
}

TEST(Codec, NameTablesReadAndPrint) {
  enum class Color { kRed, kBlue };
  constexpr Name<Color> kColors[] = {
      {Color::kRed, "red"}, {Color::kBlue, "blue"}, {Color::kRed, "r"}};
  EXPECT_EQ(name_of(kColors, Color::kRed), "red");  // first spelling prints
  EXPECT_EQ(value_of<Color>(kColors, "r"), Color::kRed);
  EXPECT_EQ(value_of<Color>(kColors, "green"), std::nullopt);
  EXPECT_EQ(alternatives<Color>(kColors), "red | blue | r");
}

}  // namespace
}  // namespace panic::codec
