#include "lang/expr.h"

#include <algorithm>

namespace panic::lang {

namespace {

/// Hard bound on evaluation stack depth; the compiler tracks the exact
/// high-water mark and rejects anything deeper, so eval() can use a fixed
/// stack with no overflow check.
constexpr std::size_t kMaxStack = 64;

}  // namespace

class ExprParser {
 public:
  ExprParser(Cursor& cur, const VarResolver& resolver, std::string* error)
      : cur_(cur), resolver_(resolver), error_(error) {}

  bool parse_into(Expr& out) {
    if (!parse_ternary(out)) return false;
    if (depth_ != 1) return fail("malformed expression");
    std::sort(out.reads_.begin(), out.reads_.end());
    out.reads_.erase(std::unique(out.reads_.begin(), out.reads_.end()),
                     out.reads_.end());
    return true;
  }

 private:
  using Op = Expr::Op;

  bool fail(const std::string& reason) {
    if (error_ != nullptr && error_->empty()) *error_ = reason;
    return false;
  }

  bool emit(Expr& out, Op op, std::uint64_t arg, int delta) {
    out.code_.push_back({op, arg});
    depth_ += delta;
    if (depth_ > static_cast<int>(kMaxStack)) {
      return fail("expression too deep");
    }
    max_depth_ = std::max(max_depth_, depth_);
    return true;
  }

  // precedence climbing, lowest first -----------------------------------

  bool parse_ternary(Expr& out) {
    if (!parse_binary(out, /*min_prec=*/0)) return false;
    if (cur_.cur.kind != TokKind::kQuestion) return true;
    cur_.advance();
    if (!parse_ternary(out)) return false;
    if (cur_.cur.kind != TokKind::kColon) {
      return fail("expected ':' in '?:' expression");
    }
    cur_.advance();
    if (!parse_ternary(out)) return false;
    // Both arms evaluate (expressions are side-effect free); kSelect pops
    // else/then/cond and pushes the chosen arm.
    return emit(out, Op::kSelect, 0, -2);
  }

  /// Binary-operator table: token -> (opcode, precedence).  Higher binds
  /// tighter; all binary operators are left-associative.
  static bool binary_op(TokKind kind, Op* op, int* prec) {
    switch (kind) {
      case TokKind::kOrOr:    *op = Op::kLOr;  *prec = 1; return true;
      case TokKind::kAndAnd:  *op = Op::kLAnd; *prec = 2; return true;
      case TokKind::kPipe:    *op = Op::kOr;   *prec = 3; return true;
      case TokKind::kCaret:   *op = Op::kXor;  *prec = 4; return true;
      case TokKind::kAmp:     *op = Op::kAnd;  *prec = 5; return true;
      case TokKind::kEqEq:    *op = Op::kEq;   *prec = 6; return true;
      case TokKind::kNe:      *op = Op::kNe;   *prec = 6; return true;
      case TokKind::kLt:      *op = Op::kLt;   *prec = 7; return true;
      case TokKind::kLe:      *op = Op::kLe;   *prec = 7; return true;
      case TokKind::kGt:      *op = Op::kGt;   *prec = 7; return true;
      case TokKind::kGe:      *op = Op::kGe;   *prec = 7; return true;
      case TokKind::kShl:     *op = Op::kShl;  *prec = 8; return true;
      case TokKind::kShr:     *op = Op::kShr;  *prec = 8; return true;
      case TokKind::kPlus:    *op = Op::kAdd;  *prec = 9; return true;
      case TokKind::kMinus:   *op = Op::kSub;  *prec = 9; return true;
      case TokKind::kStar:    *op = Op::kMul;  *prec = 10; return true;
      case TokKind::kSlash:   *op = Op::kDiv;  *prec = 10; return true;
      case TokKind::kPercent: *op = Op::kMod;  *prec = 10; return true;
      default: return false;
    }
  }

  bool parse_binary(Expr& out, int min_prec) {
    if (!parse_unary(out)) return false;
    while (true) {
      Op op;
      int prec;
      if (!binary_op(cur_.cur.kind, &op, &prec) || prec < min_prec) {
        return true;
      }
      cur_.advance();
      if (!parse_binary(out, prec + 1)) return false;
      if (!emit(out, op, 0, -1)) return false;
    }
  }

  bool parse_unary(Expr& out) {
    if (cur_.cur.kind == TokKind::kBang) {
      cur_.advance();
      return parse_unary(out) && emit(out, Op::kNot, 0, 0);
    }
    if (cur_.cur.kind == TokKind::kTilde) {
      cur_.advance();
      return parse_unary(out) && emit(out, Op::kBitNot, 0, 0);
    }
    if (cur_.cur.kind == TokKind::kMinus) {
      cur_.advance();
      return parse_unary(out) && emit(out, Op::kNeg, 0, 0);
    }
    return parse_primary(out);
  }

  bool parse_primary(Expr& out) {
    const Token tok = cur_.cur;
    if (tok.kind == TokKind::kNumber) {
      cur_.advance();
      return emit(out, Op::kConst, tok.value, +1);
    }
    if (tok.kind == TokKind::kLParen) {
      cur_.advance();
      if (!parse_ternary(out)) return false;
      if (cur_.cur.kind != TokKind::kRParen) return fail("expected ')'");
      cur_.advance();
      return true;
    }
    if (tok.kind == TokKind::kIdent) {
      if (tok.text == "min" || tok.text == "max") {
        const Op op = tok.text == "min" ? Op::kMin : Op::kMax;
        cur_.advance();
        if (cur_.cur.kind != TokKind::kLParen) {
          return fail("expected '(' after '" + tok.text + "'");
        }
        cur_.advance();
        if (!parse_ternary(out)) return false;
        if (cur_.cur.kind != TokKind::kComma) {
          return fail(tok.text + " takes two arguments");
        }
        cur_.advance();
        if (!parse_ternary(out)) return false;
        if (cur_.cur.kind != TokKind::kRParen) return fail("expected ')'");
        cur_.advance();
        return emit(out, op, 0, -1);
      }
      const auto slot = resolver_ ? resolver_(tok.text)
                                  : std::optional<std::uint32_t>{};
      if (!slot.has_value()) {
        return fail("unknown variable '" + tok.text + "'");
      }
      cur_.advance();
      out.reads_.push_back(*slot);
      return emit(out, Op::kVar, *slot, +1);
    }
    if (tok.kind == TokKind::kError) return fail(tok.error);
    if (tok.kind == TokKind::kEnd) return fail("expected expression");
    return fail("expected expression, got '" + tok.text + "'");
  }

  Cursor& cur_;
  const VarResolver& resolver_;
  std::string* error_;
  int depth_ = 0;
  int max_depth_ = 0;
};

std::optional<Expr> Expr::parse(Cursor& cur, const VarResolver& resolver,
                                std::string* error) {
  Expr e;
  ExprParser parser(cur, resolver, error);
  if (!parser.parse_into(e)) return std::nullopt;
  return e;
}

std::optional<Expr> Expr::compile(std::string_view src,
                                  const VarResolver& resolver,
                                  std::string* error) {
  Cursor cur(src);
  auto e = parse(cur, resolver, error);
  if (!e.has_value()) return std::nullopt;
  if (cur.cur.kind != TokKind::kEnd) {
    if (error != nullptr && error->empty()) {
      *error = "unexpected trailing token '" + cur.cur.text + "'";
    }
    return std::nullopt;
  }
  return e;
}

std::uint64_t Expr::eval(const std::uint64_t* vars) const {
  std::uint64_t stack[kMaxStack];
  std::size_t sp = 0;
  for (const Ins& ins : code_) {
    switch (ins.op) {
      case Op::kConst: stack[sp++] = ins.arg; break;
      case Op::kVar: stack[sp++] = vars[ins.arg]; break;
      case Op::kNot: stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0; break;
      case Op::kBitNot: stack[sp - 1] = ~stack[sp - 1]; break;
      case Op::kNeg:
        stack[sp - 1] = 0 - stack[sp - 1];
        break;
      case Op::kSelect: {
        const std::uint64_t e = stack[--sp];
        const std::uint64_t t = stack[--sp];
        stack[sp - 1] = stack[sp - 1] != 0 ? t : e;
        break;
      }
      default: {
        const std::uint64_t b = stack[--sp];
        std::uint64_t& a = stack[sp - 1];
        switch (ins.op) {
          case Op::kAdd: a = a + b; break;
          case Op::kSub: a = a - b; break;
          case Op::kMul: a = a * b; break;
          case Op::kDiv: a = b == 0 ? 0 : a / b; break;
          case Op::kMod: a = b == 0 ? 0 : a % b; break;
          case Op::kAnd: a = a & b; break;
          case Op::kOr: a = a | b; break;
          case Op::kXor: a = a ^ b; break;
          case Op::kShl: a = a << (b & 63); break;
          case Op::kShr: a = a >> (b & 63); break;
          case Op::kLt: a = a < b ? 1 : 0; break;
          case Op::kLe: a = a <= b ? 1 : 0; break;
          case Op::kGt: a = a > b ? 1 : 0; break;
          case Op::kGe: a = a >= b ? 1 : 0; break;
          case Op::kEq: a = a == b ? 1 : 0; break;
          case Op::kNe: a = a != b ? 1 : 0; break;
          case Op::kLAnd: a = (a != 0 && b != 0) ? 1 : 0; break;
          case Op::kLOr: a = (a != 0 || b != 0) ? 1 : 0; break;
          case Op::kMin: a = std::min(a, b); break;
          case Op::kMax: a = std::max(a, b); break;
          default: break;  // unary/select handled above
        }
      }
    }
  }
  return sp > 0 ? stack[sp - 1] : 0;
}

bool Expr::is_var(std::uint32_t* slot) const {
  if (code_.size() != 1 || code_[0].op != Op::kVar) return false;
  if (slot != nullptr) *slot = static_cast<std::uint32_t>(code_[0].arg);
  return true;
}

bool Expr::is_const(std::uint64_t* value) const {
  if (code_.size() != 1 || code_[0].op != Op::kConst) return false;
  if (value != nullptr) *value = code_[0].arg;
  return true;
}

}  // namespace panic::lang
