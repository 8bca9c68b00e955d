#include "rmt/p4lite.h"

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

    MatchKind kind;
    if (cur().kind != TokKind::kIdent) return fail("expected match kind");
    if (cur().text == "exact") {
      kind = MatchKind::kExact;
    } else if (cur().text == "lpm") {
      kind = MatchKind::kLpm;
    } else if (cur().text == "ternary") {
      kind = MatchKind::kTernary;
    } else {
      return fail("match kind must be exact/lpm/ternary");
    }
    advance();

    if (!expect(TokKind::kLParen)) return false;
    std::vector<Field> key_fields;
    while (true) {
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
    if (kind == MatchKind::kLpm && key_fields.size() != 1) {
      return fail("lpm tables take exactly one key field");
    }

    MatchTable table(name, kind, key_fields);
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
      if (!parse_entry(table, kind, key_fields.size())) return false;
    }
    if (!expect(TokKind::kRBrace)) return false;
    stage.tables.push_back(std::move(table));
    return true;
  }

  bool parse_value_mask(std::uint64_t* value, std::uint64_t* mask,
                        bool* has_mask) {
    if (!parse_number(value)) return false;
    *has_mask = false;
    if (cur().kind == TokKind::kSlash) {
      advance();
      if (!parse_number(mask)) return false;
      *has_mask = true;
    }
    return true;
  }

  bool parse_entry(MatchTable& table, MatchKind kind, std::size_t keys) {
    TableEntry entry;
    std::vector<std::uint64_t> masks;
    std::vector<bool> has_mask;

    auto read_one = [&]() {
      std::uint64_t v = 0, m = 0;
      bool hm = false;
      if (!parse_value_mask(&v, &m, &hm)) return false;
      entry.key.push_back(v);
      masks.push_back(m);
      has_mask.push_back(hm);
      return true;
    };

    if (cur().kind == TokKind::kLParen) {
      advance();
      while (true) {
        if (!read_one()) return false;
        if (cur().kind == TokKind::kComma) {
          advance();
          continue;
        }
        break;
      }
      if (!expect(TokKind::kRParen)) return false;
    } else {
      if (!read_one()) return false;
    }
    if (entry.key.size() != keys) {
      return fail("entry key arity does not match the table");
    }

    if (cur().kind == TokKind::kIdent && cur().text == "prio") {
      advance();
      std::uint64_t prio = 0;
      if (!parse_number(&prio)) return false;
      entry.priority = static_cast<int>(prio);
    }

    if (!expect(TokKind::kArrow)) return false;
    entry.action = Action("entry");
    if (!parse_actions(&entry.action)) return false;
    if (!expect(TokKind::kSemi)) return false;

    switch (kind) {
      case MatchKind::kExact:
        table.add_entry(std::move(entry));
        break;
      case MatchKind::kLpm: {
        // "V/len" means a prefix length for LPM.
        const int len = has_mask[0] ? static_cast<int>(masks[0]) : 32;
        if (len < 0 || len > 64) return fail("bad prefix length");
        table.add_lpm(entry.key[0], len, std::move(entry.action),
                      /*width_bits=*/32);
        break;
      }
      case MatchKind::kTernary:
        entry.masks.resize(entry.key.size());
        for (std::size_t i = 0; i < entry.key.size(); ++i) {
          entry.masks[i] = has_mask[i] ? masks[i] : ~0ull;
        }
        table.add_entry(std::move(entry));
        break;
    }
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
    if (cur().kind == TokKind::kNumber) {
      *out = static_cast<std::uint16_t>(cur().value);
      advance();
      return true;
    }
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
          !parse_number(&reg) || !expect(TokKind::kComma) ||
          !parse_field(&index) || !expect(TokKind::kComma) ||
          !parse_number(&delta)) {
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
