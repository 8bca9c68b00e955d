#include "rmt/action.h"

namespace panic::rmt {

namespace {

ActionPrimitive prim(ActionOp op, Field dst, Field src, Field src2,
                     std::uint64_t imm, std::uint64_t imm2) {
  ActionPrimitive p;
  p.op = op;
  p.dst = dst;
  p.src = src;
  p.src2 = src2;
  p.imm = imm;
  p.imm2 = imm2;
  return p;
}

}  // namespace

Action& Action::set_field(Field dst, std::uint64_t imm) {
  primitives.push_back(prim(ActionOp::kSetField, dst, Field::kCount,
                        Field::kCount, imm, 0));
  return *this;
}

Action& Action::copy_field(Field dst, Field src) {
  primitives.push_back(prim(ActionOp::kCopyField, dst, src, Field::kCount, 0, 0));
  return *this;
}

Action& Action::hash_fields(Field dst, Field a, Field b,
                            std::uint64_t modulo) {
  primitives.push_back(prim(ActionOp::kHashFields, dst, a, b, modulo, 0));
  return *this;
}

Action& Action::push_hop(std::uint16_t engine) {
  primitives.push_back(prim(ActionOp::kPushChainHop, Field::kCount, Field::kCount,
                        Field::kCount, engine, 0));
  return *this;
}

Action& Action::push_hop_from(Field engine_field) {
  primitives.push_back(prim(ActionOp::kPushChainHopFromField, Field::kCount,
                        engine_field, Field::kCount, 0, 0));
  return *this;
}

Action& Action::clear_chain() {
  primitives.push_back(prim(ActionOp::kClearChain, Field::kCount, Field::kCount,
                        Field::kCount, 0, 0));
  return *this;
}

Action& Action::set_slack(std::uint64_t slack) {
  primitives.push_back(prim(ActionOp::kSetSlack, Field::kCount, Field::kCount,
                        Field::kCount, slack, 0));
  return *this;
}

Action& Action::mark_drop() {
  primitives.push_back(prim(ActionOp::kMarkDrop, Field::kCount, Field::kCount,
                        Field::kCount, 0, 0));
  return *this;
}

Action& Action::reg_add(Field dst, std::uint32_t reg, Field index,
                        std::uint64_t delta) {
  primitives.push_back(prim(ActionOp::kRegAdd, dst, index, Field::kCount, reg,
                        delta));
  return *this;
}

Action& Action::set_expr(Field dst, std::shared_ptr<const lang::Expr> expr) {
  ActionPrimitive p;
  p.op = ActionOp::kEvalExpr;
  p.dst = dst;
  p.expr = std::move(expr);
  primitives.push_back(std::move(p));
  return *this;
}

RegisterFile::RegisterFile(std::size_t num_registers,
                           std::size_t entries_per_register)
    : entries_(entries_per_register),
      regs_(num_registers,
            std::vector<std::uint64_t>(entries_per_register, 0)) {}

std::uint64_t RegisterFile::add(std::uint32_t reg, std::uint64_t index,
                                std::uint64_t delta) {
  if (reg >= regs_.size()) return 0;
  auto& slot = regs_[reg][index % entries_];
  slot += delta;
  return slot;
}

namespace {

// 64-bit mix for kHashFields (splitmix64 finalizer).
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void apply_action(const Action& action, ActionContext& ctx) {
  for (const ActionPrimitive& p : action.primitives) {
    switch (p.op) {
      case ActionOp::kNoop:
        break;
      case ActionOp::kSetField:
        ctx.phv.set(p.dst, p.imm);
        break;
      case ActionOp::kCopyField:
        ctx.phv.set(p.dst, ctx.phv.get(p.src));
        break;
      case ActionOp::kHashFields: {
        const std::uint64_t h =
            mix(ctx.phv.get(p.src) * 0x9E3779B97F4A7C15ull ^
                ctx.phv.get(p.src2));
        ctx.phv.set(p.dst, p.imm ? h % p.imm : h);
        break;
      }
      case ActionOp::kPushChainHop:
        ctx.chain.push_hop(
            EngineId{static_cast<std::uint16_t>(p.imm)},
            static_cast<std::uint32_t>(ctx.phv.get(Field::kMetaSlack)));
        break;
      case ActionOp::kPushChainHopFromField: {
        // The field names the hop only at run time: a tile off the mesh
        // drops the message, as the `drop` action would.
        const std::uint64_t tile = ctx.phv.get(p.src);
        if (tile >= ctx.tiles) {
          ctx.phv.set(Field::kMetaDrop, 1);
          break;
        }
        ctx.chain.push_hop(
            EngineId{static_cast<std::uint16_t>(tile)},
            static_cast<std::uint32_t>(ctx.phv.get(Field::kMetaSlack)));
        break;
      }
      case ActionOp::kClearChain:
        ctx.chain.clear();
        break;
      case ActionOp::kSetSlack:
        ctx.phv.set(Field::kMetaSlack, p.imm);
        break;
      case ActionOp::kMarkDrop:
        ctx.phv.set(Field::kMetaDrop, 1);
        break;
      case ActionOp::kRegAdd: {
        const std::uint64_t v =
            ctx.regs.add(static_cast<std::uint32_t>(p.imm),
                         ctx.phv.get(p.src), p.imm2);
        if (p.dst != Field::kCount) ctx.phv.set(p.dst, v);
        break;
      }
      case ActionOp::kEvalExpr: {
        // Expression variable slots ARE Field indices; only the fields the
        // expression reads need to be materialized.
        std::uint64_t vars[kFieldCount] = {};
        for (const std::uint32_t slot : p.expr->reads()) {
          vars[slot] = ctx.phv.get(static_cast<Field>(slot));
        }
        ctx.phv.set(p.dst, p.expr->eval(vars));
        break;
      }
    }
  }
}

}  // namespace panic::rmt
