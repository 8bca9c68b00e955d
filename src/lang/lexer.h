// Shared lexer for the NIC's little languages (§3.1.1, §3.1.3).
//
// Extracted from the p4lite RMT compiler so the scheduler's rank-program
// compiler (src/engines/rank_program) and p4lite expressions share one
// token stream: identifiers with dots (ipv4.dst, flow.finish), decimal /
// hex / dotted-quad numbers (read by common/codec.h and Ipv4Addr::parse,
// so an out-of-range literal is an error token, never a wrapped value),
// '#' and '//' comments, and the full C-like operator set used by
// lang::Expr.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace panic::lang {

enum class TokKind : std::uint8_t {
  kIdent,   // identifiers and dotted names: stage, ipv4.dst, flow.finish
  kNumber,  // 42, 0x1F, 10.0.0.1 (dotted quad)
  kArrow,   // ->
  kLBrace, kRBrace, kLParen, kRParen,
  kComma, kSemi,
  kAssign,    // =
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kTilde, kBang,
  kShl, kShr,           // << >>
  kLt, kLe, kGt, kGe,   // < <= > >=
  kEqEq, kNe,           // == !=
  kAndAnd, kOrOr,       // && ||
  kQuestion, kColon,    // ? :
  kEnd,    // end of input
  kError,  // bad character or number (text holds it, error says why)
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  std::uint64_t value = 0;  // for kNumber
  std::string error;        // for kError: why the token is bad
  int line = 0;             // 1-based
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Token next();

 private:
  void skip_ws();
  Token lex_number();
  Token lex_ident();

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// A one-token-lookahead cursor over a Lexer — the shape both the p4lite
/// compiler and the expression parser consume.
struct Cursor {
  explicit Cursor(std::string_view src) : lexer(src) { advance(); }
  void advance() { cur = lexer.next(); }

  Lexer lexer;
  Token cur;
};

}  // namespace panic::lang
