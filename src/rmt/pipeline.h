// The RMT pipeline: programmable parser → match+action stages → deparser.
//
// `RmtProgram` is the configuration (the "P4 program"): a parse graph plus
// stages of match tables.  `Pipeline` is one instance of the hardware
// executing that program, with its own stateful registers.  Timing follows
// §4.2: a pipeline accepts one message per cycle (throughput F packets/s
// at clock F) and a message spends `latency_cycles()` cycles inside
// (1 parse + 1 per stage + 1 deparse).  The surrounding engine model
// (src/core/rmt_engine.*) enforces those timings on the simulated clock;
// `Pipeline::process` is the combinational content.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/message.h"
#include "rmt/parser.h"
#include "rmt/table.h"

namespace panic::rmt {

/// One match+action stage: a set of tables looked up in order (hardware
/// looks them up in parallel; order only matters if actions conflict).
struct Stage {
  std::string name;
  std::vector<MatchTable> tables;
};

/// A complete RMT program.
struct RmtProgram {
  Parser parser;
  std::vector<Stage> stages;
  /// Tiles of the mesh the program was compiled for (EngineIds below it).
  std::uint64_t tiles = EngineId::kInvalid;

  /// Adds a stage and returns a reference for adding tables.
  Stage& add_stage(const std::string& name) {
    stages.push_back(Stage{name, {}});
    return stages.back();
  }
};

struct ProcessResult {
  bool parsed = false;   ///< parser accepted the message
  bool drop = false;     ///< an action marked the message for drop
  std::uint64_t queue = 0;  ///< selected receive queue (kMetaQueue)
};

class FlowCache;
struct FlowCacheConfig;

class Pipeline {
 public:
  explicit Pipeline(std::shared_ptr<const RmtProgram> program);
  ~Pipeline();

  /// End-to-end latency of one message through the pipeline, in cycles.
  Cycles latency_cycles() const { return program_->stages.size() + 2; }

  /// Runs the program over `msg`: parses its bytes (packets) or seeds
  /// metadata only (non-packet messages), executes every stage, builds the
  /// chain header, fills `msg.meta`, and deparses modified fields back
  /// into the bytes.  Increments `msg.rmt_passes`.
  ProcessResult process(Message& msg);

  RegisterFile& registers() { return regs_; }
  const RmtProgram& program() const { return *program_; }

  std::uint64_t messages_processed() const { return processed_; }

  /// Attaches a flow-signature resolution cache (rmt/flow_cache.h).  A
  /// host wall-clock optimization only: hits replay the memoized
  /// resolution, but every observable stat stays bit-identical to a
  /// cache-less run.
  void enable_flow_cache(const FlowCacheConfig& config);
  FlowCache* flow_cache() { return cache_.get(); }

 private:
  void seed_metadata(const Message& msg, Phv& phv) const;
  void fill_message_meta(const Phv& phv, Message& msg) const;
  void deparse(const Phv& phv, const FieldLocations& locations,
               Message& msg) const;

  std::shared_ptr<const RmtProgram> program_;
  RegisterFile regs_;
  std::uint64_t processed_ = 0;
  std::unique_ptr<FlowCache> cache_;
  std::vector<std::uint8_t> matched_scratch_;  // per-miss capture buffer
  /// The chain a walk builds, swapped into the message: the message's old
  /// chain comes back here, so both keep their capacity.
  ChainHeader chain_scratch_;
};

}  // namespace panic::rmt
