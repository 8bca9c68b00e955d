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
//   * key values: decimal, 0x hex, or dotted-quad IPv4; "V/M" gives an
//     explicit ternary mask or an LPM prefix length ("10.0.0.0/8");
//   * engine operands in chain() are names resolved through the symbol
//     table the caller provides (e.g. "dma" -> tile id);
//   * actions: set_slack(n), set(field, n), copy(dst, src),
//     lb(dst, f1, f2, buckets), chain(engine, ...), chain_from(field),
//     clear_chain, drop, reg_add(dst, reg, index_field, delta).
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
