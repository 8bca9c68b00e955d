#include "engines/rank_program.h"

#include <algorithm>

namespace panic::engines {

std::string builtin_rank_source(SchedKind kind) {
  switch (kind) {
    case SchedKind::kSlack:
      return "rank = slack\n";
    case SchedKind::kFifo:
      return "rank = 0\n";
    case SchedKind::kWfq:
      // Start-time fair queueing with per-tenant weights; costs are
      // scaled by 1024 so integer division keeps resolution.
      return "flow.start = max(flow.finish, vtime)\n"
             "flow.finish = flow.start + (bytes * 1024) / weight\n"
             "rank = flow.start\n";
    case SchedKind::kStfq:
      return "flow.start = max(flow.finish, vtime)\n"
             "flow.finish = flow.start + bytes\n"
             "rank = flow.start\n";
    case SchedKind::kEdf:
      return "rank = created + slack\n";
    case SchedKind::kPrio:
      return "rank = tenant\n";
    case SchedKind::kCustom:
      return "";
  }
  return "";
}

std::uint32_t SchedSpec::weight_for(std::uint16_t tenant) const {
  for (const auto& [t, w] : weights) {
    if (t == tenant) return w == 0 ? 1 : w;
  }
  return 1;
}

void SchedSpec::set_weight(std::uint16_t tenant, std::uint32_t weight) {
  for (auto& [t, w] : weights) {
    if (t == tenant) {
      w = weight;
      return;
    }
  }
  weights.emplace_back(tenant, weight);
  std::sort(weights.begin(), weights.end());
}

namespace {

/// Read-only input slots, in RankInputs declaration order.
constexpr std::string_view kInputNames[] = {
    "slack", "tenant", "flow",  "bytes",  "now",
    "created", "seq",  "vtime", "weight", "kind",
};

std::string line_error(int line, const std::string& reason) {
  return "line " + std::to_string(line) + ": " + reason;
}

}  // namespace

std::optional<RankProgram> RankProgram::compile(std::string_view source,
                                                std::string* error) {
  RankProgram p;
  p.source_ = std::string(source);

  // name -> slot for flow./queue. state vars, registered on first mention
  // (lvalue or read) so statements can read state a later line writes.
  std::unordered_map<std::string, std::uint32_t> state_slots;
  auto state_slot = [&](std::string_view name,
                        bool is_flow) -> std::uint32_t {
    const auto it = state_slots.find(std::string(name));
    if (it != state_slots.end()) return it->second;
    StateVar var;
    var.is_flow = is_flow;
    var.ordinal = is_flow ? p.flow_slots_++ : p.queue_slots_++;
    const auto slot =
        static_cast<std::uint32_t>(kStateBase + p.state_vars_.size());
    p.state_vars_.push_back(var);
    state_slots.emplace(std::string(name), slot);
    return slot;
  };
  auto resolve = [&](std::string_view name) -> std::optional<std::uint32_t> {
    for (std::uint32_t i = 0; i < kInputCount; ++i) {
      if (name == kInputNames[i]) return i;
    }
    if (name == "rank") return kRankSlot;
    if (name.rfind("flow.", 0) == 0 && name.size() > 5) {
      return state_slot(name, /*is_flow=*/true);
    }
    if (name.rfind("queue.", 0) == 0 && name.size() > 6) {
      return state_slot(name, /*is_flow=*/false);
    }
    return std::nullopt;
  };

  auto fail = [&](int line, const std::string& reason) {
    if (error != nullptr) *error = line_error(line, reason);
    return std::nullopt;
  };

  // Statements are newline- or ';'-separated.  Comments run to end of
  // line and are stripped before the ';' split so a ';' inside a comment
  // does not start a statement.
  std::vector<std::string_view> statements;
  std::vector<int> statement_lines;
  int lineno = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    std::size_t nl = source.find('\n', pos);
    if (nl == std::string_view::npos) nl = source.size();
    std::string_view full_line = source.substr(pos, nl - pos);
    ++lineno;
    const std::size_t hash = full_line.find('#');
    if (hash != std::string_view::npos) full_line = full_line.substr(0, hash);
    const std::size_t slashes = full_line.find("//");
    if (slashes != std::string_view::npos) {
      full_line = full_line.substr(0, slashes);
    }
    std::size_t sstart = 0;
    while (sstart <= full_line.size()) {
      std::size_t send = full_line.find(';', sstart);
      if (send == std::string_view::npos) send = full_line.size();
      statements.push_back(full_line.substr(sstart, send - sstart));
      statement_lines.push_back(lineno);
      if (send == full_line.size()) break;
      sstart = send + 1;
    }
    if (nl == source.size()) break;
    pos = nl + 1;
  }

  bool saw_statement = false;
  for (std::size_t si = 0; si < statements.size(); ++si) {
    const std::string_view stmt = statements[si];
    const int this_line = statement_lines[si];

    lang::Cursor cur(stmt);
    if (cur.cur.kind == lang::TokKind::kEnd) continue;  // blank / comment
    if (cur.cur.kind != lang::TokKind::kIdent) {
      return fail(this_line, "expected variable assignment");
    }
    const std::string lhs = cur.cur.text;
    cur.advance();

    if (lhs == "key") {
      if (saw_statement) {
        return fail(this_line, "'key' must be the first statement");
      }
      if (cur.cur.kind != lang::TokKind::kIdent ||
          (cur.cur.text != "tenant" && cur.cur.text != "flow")) {
        return fail(this_line, "key must be 'tenant' or 'flow'");
      }
      p.keyed_by_flow_ = cur.cur.text == "flow";
      cur.advance();
      if (cur.cur.kind != lang::TokKind::kEnd) {
        return fail(this_line,
                    "unexpected trailing token '" + cur.cur.text + "'");
      }
      continue;
    }

    std::uint32_t dst = 0;
    if (lhs == "rank") {
      dst = kRankSlot;
    } else if ((lhs.rfind("flow.", 0) == 0 && lhs.size() > 5) ||
               (lhs.rfind("queue.", 0) == 0 && lhs.size() > 6)) {
      dst = state_slot(lhs, /*is_flow=*/lhs[0] == 'f');
    } else {
      bool is_input = false;
      for (const std::string_view input : kInputNames) {
        if (lhs == input) is_input = true;
      }
      return fail(this_line,
                  is_input
                      ? "cannot assign read-only input '" + lhs + "'"
                      : "can only assign 'rank', 'flow.<name>' or "
                        "'queue.<name>' (got '" +
                            lhs + "')");
    }

    if (cur.cur.kind != lang::TokKind::kAssign) {
      return fail(this_line, "expected '=' after '" + lhs + "'");
    }
    cur.advance();

    std::string expr_error;
    auto expr = lang::Expr::parse(cur, resolve, &expr_error);
    if (!expr.has_value()) return fail(this_line, expr_error);
    if (cur.cur.kind != lang::TokKind::kEnd) {
      return fail(this_line,
                  "unexpected trailing token '" + cur.cur.text + "'");
    }
    Statement s;
    s.dst = dst;
    s.expr = std::move(*expr);
    s.line = this_line;
    p.statements_.push_back(std::move(s));
    saw_statement = true;
  }

  bool assigns_rank = false;
  int last_line = 1;
  for (const Statement& s : p.statements_) {
    if (s.dst == kRankSlot) assigns_rank = true;
    last_line = s.line;
  }
  if (!assigns_rank) {
    return fail(last_line, "program never assigns 'rank'");
  }

  // Fast paths: exactly one statement of the form `rank = slack` or
  // `rank = <const>` (the built-in slack / fifo policies).
  if (p.statements_.size() == 1 && p.statements_[0].dst == kRankSlot) {
    std::uint32_t slot = 0;
    if (p.statements_[0].expr.is_var(&slot) && slot == 0) {
      p.trivial_slack_ = true;
    }
    std::uint64_t value = 0;
    if (p.statements_[0].expr.is_const(&value)) {
      p.trivial_const_ = true;
      p.const_rank_ = value;
    }
  }
  return p;
}

std::shared_ptr<const RankProgram> RankProgram::compile_spec(
    const SchedSpec& spec, std::string* error) {
  const std::string source = spec.source();
  if (source.empty()) {
    if (error != nullptr) {
      *error = "line 1: empty rank program";
    }
    return nullptr;
  }
  auto p = compile(source, error);
  if (!p.has_value()) return nullptr;
  return std::make_shared<const RankProgram>(std::move(*p));
}

std::uint64_t RankProgram::evaluate(
    const RankInputs& in, const RankState& state,
    std::vector<std::uint64_t>& scratch) const {
  scratch.assign(total_slots(), 0);
  scratch[0] = in.slack;
  scratch[1] = in.tenant;
  scratch[2] = in.flow;
  scratch[3] = in.bytes;
  scratch[4] = in.now;
  scratch[5] = in.created;
  scratch[6] = in.seq;
  scratch[7] = in.vtime;
  scratch[8] = in.weight;
  scratch[9] = in.kind;
  if (!state_vars_.empty()) {
    const std::vector<std::uint64_t>* flow_state = nullptr;
    if (flow_slots_ > 0) {
      const auto it = state.flows.find(state_key(in));
      if (it != state.flows.end()) flow_state = &it->second;
    }
    for (std::size_t i = 0; i < state_vars_.size(); ++i) {
      const StateVar& var = state_vars_[i];
      if (var.is_flow) {
        if (flow_state != nullptr && var.ordinal < flow_state->size()) {
          scratch[kStateBase + i] = (*flow_state)[var.ordinal];
        }
      } else if (var.ordinal < state.queue.size()) {
        scratch[kStateBase + i] = state.queue[var.ordinal];
      }
    }
  }
  for (const Statement& s : statements_) {
    scratch[s.dst] = s.expr.eval(scratch.data());
  }
  return scratch[kRankSlot];
}

void RankProgram::commit(RankState& state,
                         const std::vector<std::uint64_t>& scratch,
                         std::uint64_t key) const {
  if (state_vars_.empty()) return;
  std::vector<std::uint64_t>* flow_state = nullptr;
  if (flow_slots_ > 0) {
    flow_state = &state.flows[key];
    flow_state->resize(flow_slots_, 0);
  }
  if (queue_slots_ > 0) state.queue.resize(queue_slots_, 0);
  for (std::size_t i = 0; i < state_vars_.size(); ++i) {
    const StateVar& var = state_vars_[i];
    if (var.is_flow) {
      (*flow_state)[var.ordinal] = scratch[kStateBase + i];
    } else {
      state.queue[var.ordinal] = scratch[kStateBase + i];
    }
  }
}

}  // namespace panic::engines
