#include "lang/lexer.h"

#include <cctype>

#include "common/codec.h"
#include "net/addr.h"

namespace panic::lang {

void Lexer::skip_ws() {
  while (pos_ < src_.size()) {
    const char c = src_[pos_];
    if (c == '\n') {
      ++line_;
      ++pos_;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if (c == '#' ||
               (c == '/' && pos_ + 1 < src_.size() &&
                src_[pos_ + 1] == '/')) {
      while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }
}

Token Lexer::lex_number() {
  Token t;
  t.line = line_;
  t.kind = TokKind::kNumber;
  // The token is the whole run of letters, digits, '_' and '.', so `4x`
  // and `1.5` are bad numbers rather than a number and something else.
  const std::size_t start = pos_;
  int dots = 0;
  while (pos_ < src_.size() &&
         (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
          src_[pos_] == '_' || src_[pos_] == '.')) {
    if (src_[pos_] == '.') ++dots;
    ++pos_;
  }
  t.text = std::string(src_.substr(start, pos_ - start));
  std::string why;
  if (dots == 3) {
    // A dotted quad is an IPv4 address literal (p4lite table keys).
    if (const auto addr = Ipv4Addr::parse(t.text)) {
      t.value = addr->value();
      return t;
    }
    why = "expected an IPv4 address, got '" + t.text + "'";
  } else if (codec::read(t.text, &t.value, &why, {}, /*hex=*/true)) {
    return t;
  }
  t.kind = TokKind::kError;
  t.error = "bad number: " + why;
  return t;
}

Token Lexer::lex_ident() {
  Token t;
  t.line = line_;
  t.kind = TokKind::kIdent;
  const std::size_t start = pos_;
  while (pos_ < src_.size() &&
         (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
          src_[pos_] == '_' || src_[pos_] == '.')) {
    ++pos_;
  }
  t.text = std::string(src_.substr(start, pos_ - start));
  return t;
}

Token Lexer::next() {
  skip_ws();
  Token t;
  t.line = line_;
  if (pos_ >= src_.size()) {
    t.kind = TokKind::kEnd;
    return t;
  }
  const char c = src_[pos_];
  auto two = [&](char second) {
    return pos_ + 1 < src_.size() && src_[pos_ + 1] == second;
  };
  auto one = [&](TokKind k, const char* text) {
    ++pos_;
    t.kind = k;
    t.text = text;
    return t;
  };
  auto pair = [&](TokKind k, const char* text) {
    pos_ += 2;
    t.kind = k;
    t.text = text;
    return t;
  };
  switch (c) {
    case '{': return one(TokKind::kLBrace, "{");
    case '}': return one(TokKind::kRBrace, "}");
    case '(': return one(TokKind::kLParen, "(");
    case ')': return one(TokKind::kRParen, ")");
    case ',': return one(TokKind::kComma, ",");
    case ';': return one(TokKind::kSemi, ";");
    case '+': return one(TokKind::kPlus, "+");
    case '*': return one(TokKind::kStar, "*");
    case '%': return one(TokKind::kPercent, "%");
    case '^': return one(TokKind::kCaret, "^");
    case '~': return one(TokKind::kTilde, "~");
    case '?': return one(TokKind::kQuestion, "?");
    case ':': return one(TokKind::kColon, ":");
    case '-':
      if (two('>')) return pair(TokKind::kArrow, "->");
      return one(TokKind::kMinus, "-");
    case '/':
      // '//' comments were consumed by skip_ws; a lone slash is p4lite's
      // value/mask separator and lang::Expr's division.
      return one(TokKind::kSlash, "/");
    case '&':
      if (two('&')) return pair(TokKind::kAndAnd, "&&");
      return one(TokKind::kAmp, "&");
    case '|':
      if (two('|')) return pair(TokKind::kOrOr, "||");
      return one(TokKind::kPipe, "|");
    case '<':
      if (two('<')) return pair(TokKind::kShl, "<<");
      if (two('=')) return pair(TokKind::kLe, "<=");
      return one(TokKind::kLt, "<");
    case '>':
      if (two('>')) return pair(TokKind::kShr, ">>");
      if (two('=')) return pair(TokKind::kGe, ">=");
      return one(TokKind::kGt, ">");
    case '=':
      if (two('=')) return pair(TokKind::kEqEq, "==");
      return one(TokKind::kAssign, "=");
    case '!':
      if (two('=')) return pair(TokKind::kNe, "!=");
      return one(TokKind::kBang, "!");
    default:
      break;
  }
  if (std::isdigit(static_cast<unsigned char>(c))) return lex_number();
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    return lex_ident();
  }
  ++pos_;
  t.kind = TokKind::kError;
  t.text = std::string(1, c);
  t.error = "bad character '" + t.text + "'";
  return t;
}

}  // namespace panic::lang
