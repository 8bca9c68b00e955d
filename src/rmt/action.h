// Action primitives executed when a table entry matches.
//
// RMT stages restrict actions to simple single-cycle atoms (§2.3.3: "the
// actions that are possible at each stage of the pipeline are limited to
// relatively simple atoms to guarantee that the entire pipeline can process
// packets at line-rate").  Our primitive set mirrors that: field moves,
// small ALU ops, stateful register read-modify-writes, chain-hop pushes
// and scheduling/drop markers.  Anything heavier must be an offload engine
// — that restriction is exactly the paper's argument.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/expr.h"
#include "net/chain_header.h"
#include "rmt/phv.h"

namespace panic::rmt {

enum class ActionOp : std::uint8_t {
  kNoop,
  kSetField,       ///< dst = imm
  kCopyField,      ///< dst = src
  kHashFields,     ///< dst = hash(src, src2) % imm  (flow hashing / LB)
  kPushChainHop,   ///< append hop {engine=imm, slack=phv[kMetaSlack]}
  kPushChainHopFromField,  ///< append hop {engine=phv[src], slack=...}
  kClearChain,     ///< reset the chain under construction
  kSetSlack,       ///< kMetaSlack = imm
  kMarkDrop,       ///< kMetaDrop = 1
  kRegAdd,         ///< reg[imm][phv[src]] += imm2; dst = new value
  kEvalExpr,       ///< dst = expr(PHV) — a compiled lang::Expr over fields
};

struct ActionPrimitive {
  ActionOp op = ActionOp::kNoop;
  Field dst = Field::kCount;
  Field src = Field::kCount;
  Field src2 = Field::kCount;
  std::uint64_t imm = 0;
  std::uint64_t imm2 = 0;
  /// kEvalExpr only: compiled expression whose variable slots are Field
  /// indices.  Shared because Actions are copied into table entries.
  std::shared_ptr<const lang::Expr> expr;
};

/// A named action: an ordered list of primitives (all of which a hardware
/// stage would execute in parallel within the stage's cycle).
struct Action {
  std::string name;
  std::vector<ActionPrimitive> primitives;

  Action() = default;
  explicit Action(std::string n) : name(std::move(n)) {}

  Action& set_field(Field dst, std::uint64_t imm);
  Action& copy_field(Field dst, Field src);
  Action& hash_fields(Field dst, Field a, Field b, std::uint64_t modulo);
  Action& push_hop(std::uint16_t engine);
  Action& push_hop_from(Field engine_field);
  Action& clear_chain();
  Action& set_slack(std::uint64_t slack);
  Action& mark_drop();
  Action& reg_add(Field dst, std::uint32_t reg, Field index,
                  std::uint64_t delta);
  /// dst = expr evaluated over the PHV (expression variables are field
  /// names resolved to Field slots at compile time).
  Action& set_expr(Field dst, std::shared_ptr<const lang::Expr> expr);
};

/// Stateful register file shared by the stages of one pipeline (per-stage
/// in real RMT; we pool them per pipeline for simplicity — the programs we
/// run keep each register's users within one stage).
class RegisterFile {
 public:
  /// Registers in a pipeline's file; p4lite rejects a reg_add past them.
  static constexpr std::size_t kRegisters = 16;

  explicit RegisterFile(std::size_t num_registers = kRegisters,
                        std::size_t entries_per_register = 1024);

  /// reg[index % entries] += delta; returns the new value (0 for a
  /// register past the file).
  std::uint64_t add(std::uint32_t reg, std::uint64_t index,
                    std::uint64_t delta);

 private:
  std::size_t entries_;
  std::vector<std::vector<std::uint64_t>> regs_;
};

/// The side-effect context an action executes against: the PHV, the chain
/// being built for the message, the stateful registers, and the mesh's
/// tile count (RmtProgram::tiles).
struct ActionContext {
  Phv& phv;
  ChainHeader& chain;
  RegisterFile& regs;
  std::uint64_t tiles = EngineId::kInvalid;
};

/// Executes every primitive of `action` in order.
void apply_action(const Action& action, ActionContext& ctx);

}  // namespace panic::rmt
