// Programmable parser: a parse graph in the style of P4 (§4.1 of the paper
// says the heavyweight pipeline is programmed "similarly to how current RMT
// switches are programmed (e.g., using P4)").
//
// Each state extracts fields from the current header, advances by the
// header length, and selects the next state by matching an extracted field
// against transition patterns.  `Parser::parse` runs the graph over raw
// frame bytes, filling a PHV and recording each field's byte offset so the
// deparser can write modified fields back.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rmt/phv.h"

namespace panic::rmt {

/// Extracts `width_bytes` (1..8, big-endian) at `offset` within the current
/// header into `field`.
struct ParserExtract {
  Field field;
  std::uint16_t offset = 0;
  std::uint8_t width_bytes = 1;
};

/// Transition: if (select & mask) == (value & mask), go to `next_state`.
struct ParserTransition {
  std::uint64_t value = 0;
  std::uint64_t mask = ~0ull;
  std::string next_state;
};

struct ParserState {
  std::string name;
  /// Validity field set to 1 when this state runs (optional).
  std::optional<Field> set_valid;
  std::vector<ParserExtract> extracts;
  /// Bytes this state's header occupies; the cursor advances by this much.
  std::uint16_t header_bytes = 0;
  /// Field whose extracted value selects the next state (optional; without
  /// it the default transition is taken).
  std::optional<Field> select;
  std::vector<ParserTransition> transitions;
  /// Next state when nothing matches; empty = accept.
  std::string default_next;
};

/// Where a field was found in the frame, for deparsing.
struct FieldLocation {
  std::uint32_t offset = 0;
  std::uint8_t width_bytes = 0;
};

/// Per-packet record of where each extracted field sits in the frame,
/// indexed by field (width_bytes == 0 => not extracted).  A flat array
/// that lives on the process() stack: the std::map<Field, FieldLocation>
/// it replaced cost one tree-node allocation per extracted field per
/// packet on the simulation hot path.
class FieldLocations {
 public:
  void set(Field f, std::uint32_t offset, std::uint8_t width) {
    at_[static_cast<std::size_t>(f)] = FieldLocation{offset, width};
  }
  bool has(Field f) const {
    return at_[static_cast<std::size_t>(f)].width_bytes != 0;
  }
  const FieldLocation& operator[](Field f) const {
    return at_[static_cast<std::size_t>(f)];
  }

 private:
  std::array<FieldLocation, kFieldCount> at_{};
};

class Parser {
 public:
  /// Adds a state; the first state added is the start state.
  void add_state(ParserState state);

  /// Parses `frame` into `phv`.  Returns false if the graph references a
  /// missing state, a transition loops too long, or an extract runs past
  /// the end of the frame.  On success, `locations` (if non-null) receives
  /// the byte location of every extracted field.
  bool parse(std::span<const std::uint8_t> frame, Phv& phv,
             FieldLocations* locations = nullptr) const;

  std::size_t num_states() const { return states_.size(); }

 private:
  /// The name-linked graph is compiled into index-linked states once per
  /// add_state (build time), so the per-packet walk does no string
  /// hashing, map lookups or std::string copies.
  struct CompiledTransition {
    std::uint64_t value;
    std::uint64_t mask;
    std::int32_t next;
  };
  struct CompiledState {
    std::optional<Field> set_valid;
    std::vector<ParserExtract> extracts;
    std::uint16_t header_bytes = 0;
    std::optional<Field> select;
    std::vector<CompiledTransition> transitions;
    std::int32_t default_next = kAccept;
  };
  static constexpr std::int32_t kAccept = -1;   ///< empty next: done
  static constexpr std::int32_t kMissing = -2;  ///< unresolved state name

  void compile();

  std::string start_;
  std::map<std::string, ParserState> states_;
  std::vector<CompiledState> compiled_;
  std::int32_t start_index_ = kMissing;
};

/// The default parse graph for the protocol set in src/net: Ethernet →
/// IPv4 → {UDP → KVS, TCP, ESP}.
Parser make_default_parser();

}  // namespace panic::rmt
