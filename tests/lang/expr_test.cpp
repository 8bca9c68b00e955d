#include "lang/expr.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

namespace panic::lang {
namespace {

std::optional<std::uint32_t> resolve(std::string_view name) {
  if (name == "a") return 0;
  if (name == "b") return 1;
  if (name == "c") return 2;
  return std::nullopt;
}

std::uint64_t eval(const std::string& src, std::uint64_t a = 0,
                   std::uint64_t b = 0, std::uint64_t c = 0) {
  std::string error;
  auto e = Expr::compile(src, resolve, &error);
  EXPECT_TRUE(e.has_value()) << src << ": " << error;
  if (!e.has_value()) return 0;
  const std::uint64_t vars[3] = {a, b, c};
  return e->eval(vars);
}

std::string compile_error(const std::string& src) {
  std::string error;
  auto e = Expr::compile(src, resolve, &error);
  EXPECT_FALSE(e.has_value()) << src << " compiled unexpectedly";
  return error;
}

TEST(Expr, ArithmeticPrecedence) {
  EXPECT_EQ(eval("2 + 3 * 4"), 14u);
  EXPECT_EQ(eval("(2 + 3) * 4"), 20u);
  EXPECT_EQ(eval("20 - 8 / 2"), 16u);
  EXPECT_EQ(eval("17 % 5"), 2u);
  EXPECT_EQ(eval("1 + 2 < 4"), 1u);  // comparison binds looser than +
}

TEST(Expr, TotalSemantics) {
  // Division and modulo by zero yield 0; shifts mask the amount to 6
  // bits; subtraction and negation wrap — every program is safe on every
  // input (the fuzz generator's precondition).
  EXPECT_EQ(eval("7 / 0"), 0u);
  EXPECT_EQ(eval("7 % 0"), 0u);
  EXPECT_EQ(eval("a / b", 7, 0), 0u);
  EXPECT_EQ(eval("1 << 64"), 1u);   // 64 & 63 == 0
  EXPECT_EQ(eval("1 << 65"), 2u);
  EXPECT_EQ(eval("0 - 1"), ~0ull);
  EXPECT_EQ(eval("-1"), ~0ull);
}

TEST(Expr, BitwiseAndShift) {
  EXPECT_EQ(eval("12 & 10"), 8u);
  EXPECT_EQ(eval("12 | 10"), 14u);
  EXPECT_EQ(eval("12 ^ 10"), 6u);
  EXPECT_EQ(eval("~0 >> 32"), 0xFFFFFFFFull);
  EXPECT_EQ(eval("3 << 4"), 48u);
  // & binds tighter than |, looser than ==.
  EXPECT_EQ(eval("1 | 2 & 3"), 3u);
  EXPECT_EQ(eval("1 & 1 == 1"), 1u);
}

TEST(Expr, ComparisonsAndLogic) {
  EXPECT_EQ(eval("3 < 4"), 1u);
  EXPECT_EQ(eval("4 <= 4"), 1u);
  EXPECT_EQ(eval("4 > 4"), 0u);
  EXPECT_EQ(eval("5 >= 4"), 1u);
  EXPECT_EQ(eval("5 == 5"), 1u);
  EXPECT_EQ(eval("5 != 5"), 0u);
  EXPECT_EQ(eval("2 && 3"), 1u);  // logical ops normalize to 0/1
  EXPECT_EQ(eval("0 && 3"), 0u);
  EXPECT_EQ(eval("0 || 9"), 1u);
  EXPECT_EQ(eval("!0"), 1u);
  EXPECT_EQ(eval("!7"), 0u);
}

TEST(Expr, TernaryAndMinMax) {
  EXPECT_EQ(eval("a > 5 ? 10 : 20", 7), 10u);
  EXPECT_EQ(eval("a > 5 ? 10 : 20", 3), 20u);
  // Right-associative: a ? 1 : b ? 2 : 3.
  EXPECT_EQ(eval("a ? 1 : b ? 2 : 3", 0, 1), 2u);
  EXPECT_EQ(eval("a ? 1 : b ? 2 : 3", 0, 0), 3u);
  EXPECT_EQ(eval("min(a, b)", 9, 4), 4u);
  EXPECT_EQ(eval("max(a, b)", 9, 4), 9u);
  EXPECT_EQ(eval("max(min(a, 5), b)", 9, 2), 5u);
}

TEST(Expr, VariablesAndReads) {
  std::string error;
  auto e = Expr::compile("c + a * a", resolve, &error);
  ASSERT_TRUE(e.has_value()) << error;
  // reads() is sorted and deduplicated.
  ASSERT_EQ(e->reads().size(), 2u);
  EXPECT_EQ(e->reads()[0], 0u);
  EXPECT_EQ(e->reads()[1], 2u);
}

TEST(Expr, NumberFormats) {
  EXPECT_EQ(eval("0x10"), 16u);
  EXPECT_EQ(eval("0xdead"), 0xdeadu);
  // Dotted quad packs as an IPv4 address (big-endian).
  EXPECT_EQ(eval("10.0.0.1"), 0x0A000001u);
}

TEST(Expr, CommentsSkipped) {
  EXPECT_EQ(eval("2 + 3  # trailing comment"), 5u);
  EXPECT_EQ(eval("2 + 3  // c++ style"), 5u);
}

TEST(Expr, IntrospectionFastPaths) {
  std::string error;
  auto v = Expr::compile("b", resolve, &error);
  ASSERT_TRUE(v.has_value());
  std::uint32_t slot = 99;
  EXPECT_TRUE(v->is_var(&slot));
  EXPECT_EQ(slot, 1u);
  EXPECT_FALSE(v->is_const(nullptr));

  auto k = Expr::compile("42", resolve, &error);
  ASSERT_TRUE(k.has_value());
  std::uint64_t value = 0;
  EXPECT_TRUE(k->is_const(&value));
  EXPECT_EQ(value, 42u);
  EXPECT_FALSE(k->is_var(nullptr));

  auto neither = Expr::compile("a + 1", resolve, &error);
  ASSERT_TRUE(neither.has_value());
  EXPECT_FALSE(neither->is_var(nullptr));
  EXPECT_FALSE(neither->is_const(nullptr));
}

TEST(Expr, Errors) {
  EXPECT_EQ(compile_error("nope"), "unknown variable 'nope'");
  EXPECT_EQ(compile_error("(a + 1"), "expected ')'");
  EXPECT_EQ(compile_error("a + "), "expected expression");
  EXPECT_EQ(compile_error(""), "expected expression");
  EXPECT_EQ(compile_error("a @ b"), "unexpected trailing token '@'");
  EXPECT_EQ(compile_error("a ? 1, 2"), "expected ':' in '?:' expression");
  EXPECT_EQ(compile_error("min(a)"), "min takes two arguments");
  EXPECT_EQ(compile_error("max a"), "expected '(' after 'max'");
  EXPECT_EQ(compile_error("a b"), "unexpected trailing token 'b'");
}

TEST(Expr, DepthBounded) {
  // kMaxStack = 64: a 100-operand sum stays depth 2 (left-assoc), but 70
  // nested parens-free min() calls pile operands up and must be rejected
  // before eval could overflow its fixed stack.
  std::string flat = "1";
  for (int i = 0; i < 100; ++i) flat += " + 1";
  EXPECT_EQ(eval(flat), 101u);

  std::string deep;
  for (int i = 0; i < 70; ++i) deep += "min(1, ";
  deep += "1";
  for (int i = 0; i < 70; ++i) deep += ")";
  EXPECT_EQ(compile_error(deep), "expression too deep");
}

TEST(Expr, EmbeddedParseStopsAtForeignToken) {
  // Expr::parse on a shared cursor consumes only the expression — the
  // p4lite embedding pattern: the caller's grammar resumes at ')'.
  Cursor cur(std::string_view("a + b) trailing"));
  std::string error;
  auto e = Expr::parse(cur, resolve, &error);
  ASSERT_TRUE(e.has_value()) << error;
  EXPECT_EQ(cur.cur.kind, TokKind::kRParen);
  const std::uint64_t vars[3] = {2, 3, 0};
  EXPECT_EQ(e->eval(vars), 5u);
}

TEST(Expr, LiteralsAreExact) {
  EXPECT_EQ(eval("18446744073709551615"), ~std::uint64_t{0});
  EXPECT_EQ(eval("0x10 + 010"), 26u);  // decimal, not octal
  EXPECT_EQ(compile_error("18446744073709551616"),
            "bad number: expected 0..2^64-1, got '18446744073709551616'");
  EXPECT_EQ(compile_error("1.5"),
            "bad number: expected an integer or 0x-hex, got '1.5'");
}

}  // namespace
}  // namespace panic::lang
