#include "rmt/p4lite.h"

#include <limits>
#include <memory>
#include <vector>

#include "lang/expr.h"
#include "lang/lexer.h"

namespace panic::rmt {

std::optional<Field> field_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const auto f = static_cast<Field>(i);
    if (name == field_name(f)) return f;
  }
  return std::nullopt;
}

namespace {

using lang::TokKind;

// ---------------------------------------------------------------------
// Parser / compiler
//
// Tokenization lives in the shared src/lang lexer (extracted from here so
// the scheduler's rank-program compiler speaks the same language); this
// file keeps only the p4lite grammar.
// ---------------------------------------------------------------------

class Compiler {
 public:
  Compiler(std::string_view src, const SymbolTable& symbols)
      : cursor_(src), symbols_(symbols) {}

  bool compile_into(RmtProgram& program, bool require_parser) {
    bool saw_parser = false;
    while (cur().kind != TokKind::kEnd) {
      if (cur().kind == TokKind::kIdent && cur().text == "parser") {
        advance();
        if (!expect_ident("default") || !expect(TokKind::kSemi)) return false;
        program.parser = make_default_parser();
        saw_parser = true;
      } else if (cur().kind == TokKind::kIdent && cur().text == "stage") {
        if (!parse_stage(program)) return false;
      } else {
        return fail("expected 'parser' or 'stage'");
      }
    }
    if (require_parser && !saw_parser) {
      return fail("program must declare 'parser default;'");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  const lang::Token& cur() const { return cursor_.cur; }
  void advance() { cursor_.advance(); }

  /// Records the first error; at a bad token the lexer's reason wins.
  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = "p4lite:" + std::to_string(cur().line) + ": " +
               (cur().kind == TokKind::kError ? cur().error : message);
    }
    return false;
  }

  bool expect(TokKind kind) {
    if (cur().kind != kind) {
      return fail("unexpected token '" + cur().text + "'");
    }
    advance();
    return true;
  }

  bool expect_ident(const std::string& word) {
    if (cur().kind != TokKind::kIdent || cur().text != word) {
      return fail("expected '" + word + "'");
    }
    advance();
    return true;
  }

  bool parse_field(Field* out) {
    if (cur().kind != TokKind::kIdent) return fail("expected field name");
    const auto f = field_from_name(cur().text);
    if (!f.has_value()) return fail("unknown field '" + cur().text + "'");
    *out = *f;
    advance();
    return true;
  }

  bool parse_number(std::uint64_t* out) {
    if (cur().kind != TokKind::kNumber) return fail("expected number");
    *out = cur().value;
    advance();
    return true;
  }

  /// A number in 0..max; the error names `what` in the codec's words.
  bool parse_at_most(std::uint64_t max, const std::string& what,
                     std::uint64_t* out) {
    if (cur().kind == TokKind::kNumber && cur().value > max) {
      return fail(what + ": expected 0.." + std::to_string(max) +
                  ", got '" + cur().text + "'");
    }
    return parse_number(out);
  }

  bool parse_stage(RmtProgram& program) {
    advance();  // 'stage'
    if (cur().kind != TokKind::kIdent) return fail("expected stage name");
    Stage& stage = program.add_stage(cur().text);
    advance();
    if (!expect(TokKind::kLBrace)) return false;
    while (cur().kind != TokKind::kRBrace) {
      if (!parse_table(stage)) return false;
    }
    return expect(TokKind::kRBrace);
  }

  bool parse_table(Stage& stage) {
    if (!expect_ident("table")) return false;
    if (cur().kind != TokKind::kIdent) return fail("expected table name");
    const std::string name = cur().text;
    advance();

    if (cur().kind != TokKind::kIdent) return fail("expected match kind");
    const std::string kind = cur().text;
    if (kind != "exact" && kind != "lpm" && kind != "ternary") {
      return fail("match kind must be exact/lpm/ternary");
    }
    advance();

    if (!expect(TokKind::kLParen)) return false;
    std::vector<Field> key_fields;
    while (true) {
      if (key_fields.size() == kMaxKeyFields) {
        return fail("a table key takes at most " +
                    std::to_string(kMaxKeyFields) + " fields");
      }
      Field f;
      if (!parse_field(&f)) return false;
      key_fields.push_back(f);
      if (cur().kind == TokKind::kComma) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokKind::kRParen)) return false;
    if (kind == "lpm" && key_fields.size() != 1) {
      return fail("lpm tables take exactly one key field");
    }

    // An lpm table is a ternary table whose priorities are prefix lengths.
    MatchTable table(
        name, kind == "exact" ? MatchKind::kExact : MatchKind::kTernary,
        key_fields);
    if (!expect(TokKind::kLBrace)) return false;
    while (cur().kind != TokKind::kRBrace) {
      if (cur().kind == TokKind::kIdent && cur().text == "default") {
        advance();
        if (!expect(TokKind::kArrow)) return false;
        Action action("default");
        if (!parse_actions(&action)) return false;
        table.set_default_action(std::move(action));
        if (!expect(TokKind::kSemi)) return false;
        continue;
      }
      if (!parse_entry(table, kind)) return false;
    }
    if (!expect(TokKind::kRBrace)) return false;
    stage.tables.push_back(std::move(table));
    return true;
  }

  /// Key word `i`: a value, then "/mask" in a ternary table or
  /// "/prefix_length" in an lpm table (default /32, the width of every
  /// lpm entry).
  bool parse_key_word(const std::string& kind, std::size_t i,
                      TableEntry& entry) {
    if (!parse_number(&entry.key[i])) return false;
    std::uint64_t mask = ~0ull;
    std::uint64_t prefix = 32;
    if (cur().kind == TokKind::kSlash) {
      if (kind == "exact") return fail("exact entries take no mask");
      advance();
      if (!(kind == "lpm" ? parse_at_most(32, "lpm prefix length", &prefix)
                          : parse_number(&mask))) {
        return false;
      }
    }
    if (kind == "lpm") {
      entry.mask[i] = (0xFFFFFFFFull << (32 - prefix)) & 0xFFFFFFFFull;
      entry.priority = static_cast<int>(prefix);
    } else {
      entry.mask[i] = mask;
    }
    return true;
  }

  bool parse_entry(MatchTable& table, const std::string& kind) {
    const std::size_t width = table.key_fields().size();
    TableEntry entry;
    const bool list = cur().kind == TokKind::kLParen;
    if (list) advance();
    std::size_t words = 0;
    while (true) {
      if (words == width) {
        return fail("entry key arity does not match the table");
      }
      if (!parse_key_word(kind, words++, entry)) return false;
      if (!list || cur().kind != TokKind::kComma) break;
      advance();
    }
    if (list && !expect(TokKind::kRParen)) return false;
    if (words != width) {
      return fail("entry key arity does not match the table");
    }

    if (cur().kind == TokKind::kIdent && cur().text == "prio") {
      if (kind != "ternary") return fail(kind + " entries take no prio");
      advance();
      std::uint64_t prio = 0;
      if (!parse_at_most(std::numeric_limits<int>::max(), "prio", &prio)) {
        return false;
      }
      entry.priority = static_cast<int>(prio);
    }

    if (!expect(TokKind::kArrow)) return false;
    entry.action = Action("entry");
    if (!parse_actions(&entry.action)) return false;
    if (!expect(TokKind::kSemi)) return false;
    table.add_entry(std::move(entry));
    return true;
  }

  bool parse_actions(Action* action) {
    while (true) {
      if (!parse_action(action)) return false;
      if (cur().kind == TokKind::kComma) {
        advance();
        continue;
      }
      return true;
    }
  }

  bool resolve_engine(std::uint16_t* out) {
    if (cur().kind != TokKind::kIdent) return fail("expected engine name");
    const auto it = symbols_.find(cur().text);
    if (it == symbols_.end()) {
      return fail("unknown engine '" + cur().text + "'");
    }
    *out = it->second;
    advance();
    return true;
  }

  bool parse_action(Action* action) {
    if (cur().kind != TokKind::kIdent) return fail("expected action");
    const std::string op = cur().text;
    advance();

    if (op == "drop") {
      action->mark_drop();
      return true;
    }
    if (op == "clear_chain") {
      action->clear_chain();
      return true;
    }

    if (!expect(TokKind::kLParen)) return false;
    if (op == "set_slack") {
      std::uint64_t v = 0;
      if (!parse_number(&v)) return false;
      action->set_slack(v);
    } else if (op == "set") {
      Field f;
      std::uint64_t v = 0;
      if (!parse_field(&f) || !expect(TokKind::kComma) || !parse_number(&v)) {
        return false;
      }
      action->set_field(f, v);
    } else if (op == "copy") {
      Field dst, src;
      if (!parse_field(&dst) || !expect(TokKind::kComma) ||
          !parse_field(&src)) {
        return false;
      }
      action->copy_field(dst, src);
    } else if (op == "set_expr") {
      // set_expr(dst, <expression over PHV fields>) — the shared lang
      // expression language, same as scheduler rank programs.
      Field dst;
      if (!parse_field(&dst) || !expect(TokKind::kComma)) return false;
      std::string expr_error;
      auto expr = lang::Expr::parse(
          cursor_,
          [](std::string_view name) -> std::optional<std::uint32_t> {
            const auto f = field_from_name(name);
            if (!f.has_value()) return std::nullopt;
            return static_cast<std::uint32_t>(*f);
          },
          &expr_error);
      if (!expr.has_value()) return fail("set_expr: " + expr_error);
      action->set_expr(dst,
                       std::make_shared<const lang::Expr>(std::move(*expr)));
    } else if (op == "lb") {
      Field dst, a, b;
      std::uint64_t buckets = 0;
      if (!parse_field(&dst) || !expect(TokKind::kComma) ||
          !parse_field(&a) || !expect(TokKind::kComma) || !parse_field(&b) ||
          !expect(TokKind::kComma) || !parse_number(&buckets)) {
        return false;
      }
      action->hash_fields(dst, a, b, buckets);
    } else if (op == "chain") {
      while (true) {
        std::uint16_t engine = 0;
        if (!resolve_engine(&engine)) return false;
        action->push_hop(engine);
        if (cur().kind == TokKind::kComma) {
          advance();
          continue;
        }
        break;
      }
    } else if (op == "chain_from") {
      Field f;
      if (!parse_field(&f)) return false;
      action->push_hop_from(f);
    } else if (op == "reg_add") {
      Field dst, index;
      std::uint64_t reg = 0, delta = 0;
      if (!parse_field(&dst) || !expect(TokKind::kComma) ||
          !parse_at_most(RegisterFile::kRegisters - 1, "reg_add register",
                         &reg) ||
          !expect(TokKind::kComma) || !parse_field(&index) ||
          !expect(TokKind::kComma) || !parse_number(&delta)) {
        return false;
      }
      action->reg_add(dst, static_cast<std::uint32_t>(reg), index, delta);
    } else {
      return fail("unknown action '" + op + "'");
    }
    return expect(TokKind::kRParen);
  }

  lang::Cursor cursor_;
  const SymbolTable& symbols_;
  std::string error_;
};

}  // namespace

std::optional<RmtProgram> compile_p4lite(std::string_view source,
                                         const SymbolTable& symbols,
                                         std::string* error) {
  RmtProgram program;
  Compiler compiler(source, symbols);
  if (!compiler.compile_into(program, /*require_parser=*/true)) {
    if (error) *error = compiler.error();
    return std::nullopt;
  }
  return program;
}

bool append_p4lite_stages(RmtProgram& program, std::string_view source,
                          const SymbolTable& symbols, std::string* error) {
  Compiler compiler(source, symbols);
  if (!compiler.compile_into(program, /*require_parser=*/false)) {
    if (error) *error = compiler.error();
    return false;
  }
  return true;
}

}  // namespace panic::rmt
