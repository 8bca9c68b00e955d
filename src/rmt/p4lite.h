// P4-lite: a small textual language for programming the PANIC RMT
// pipeline (§4.1: the heavyweight pipeline and lookup tables "are
// programmed similarly to how current RMT switches are programmed (e.g.,
// using P4)").  It compiles to the same RmtProgram the builder API
// produces.
//
// Example:
//
//   parser default;
//
//   stage slack {
//     table tenant_slack exact(kvs.tenant) {
//       1 -> set_slack(10);
//       2 -> set_slack(1000);
//       default -> set_slack(500);
//     }
//   }
//
//   stage classify {
//     table route ternary(valid_esp, meta.msg_kind) {
//       (1, 0) prio 100 -> chain(ipsec_rx);
//       (0/0, 0) prio 10 -> lb(meta.queue, ipv4.src, l4.sport, 8),
//                           chain(dma);
//     }
//   }
//
// Syntax notes:
//   * fields use the names printed by field_name(): "ipv4.dst",
//     "meta.tenant", "valid_esp" (dots become underscores for validity
//     bits);
//   * a table key has 1..8 fields (kMaxKeyFields), an lpm key exactly 1;
//   * key values: decimal, 0x hex, or dotted-quad IPv4; "V/M" gives a
//     ternary mask, "V/len" an lpm prefix length up to /32 ("10.0.0.0/8";
//     every lpm entry is 32 bits wide, and a bare V means /32).  Exact
//     entries take no mask.  "prio N" (0..2^31-1, higher first) orders
//     ternary entries only: exact entries take none, and lpm entries are
//     ordered by prefix length;
//   * engine operands in chain() are names, never numbers, resolved
//     through the symbol table the caller provides (e.g. "dma" -> tile
//     id; the NIC's names are PanicTopology::tile_names(), spare tiles
//     included as spare<N>);
//   * actions: set_slack(n), set(field, n), copy(dst, src),
//     set_expr(dst, expression), lb(dst, f1, f2, buckets),
//     chain(engine, ...), chain_from(field) (a tile off the mesh drops
//     the message), clear_chain, drop,
//     reg_add(dst, reg, index_field, delta) with reg in 0..15.
//
// The compiler reports errors with line numbers; `compile` returns
// nullopt and fills `error` on failure.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "rmt/pipeline.h"

namespace panic::rmt {

/// Engine-name resolution for chain() actions.
using SymbolTable = std::map<std::string, std::uint16_t>;

/// Compiles a complete program (must contain "parser default;").
std::optional<RmtProgram> compile_p4lite(std::string_view source,
                                         const SymbolTable& symbols,
                                         std::string* error = nullptr);

/// Compiles stage declarations (and an optional "parser default;") and
/// appends them to `program`: how the PANIC NIC builds its default
/// program and then the config's own stages (core/program_factory.h).
bool append_p4lite_stages(RmtProgram& program, std::string_view source,
                          const SymbolTable& symbols,
                          std::string* error = nullptr);

/// Reverse of field_name(): resolves "ipv4.dst" / "valid_esp" / ... to a
/// Field.  Returns nullopt for unknown names.
std::optional<Field> field_from_name(std::string_view name);

}  // namespace panic::rmt
