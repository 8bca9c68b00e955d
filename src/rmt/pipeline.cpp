#include "rmt/pipeline.h"

#include <cassert>
#include <utility>

#include "rmt/flow_cache.h"

namespace panic::rmt {

Pipeline::Pipeline(std::shared_ptr<const RmtProgram> program)
    : program_(std::move(program)) {
  assert(program_ != nullptr);
}

Pipeline::~Pipeline() = default;

void Pipeline::enable_flow_cache(const FlowCacheConfig& config) {
  if (!config.enabled) {
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<FlowCache>(config, *program_);
}

void Pipeline::seed_metadata(const Message& msg, Phv& phv) const {
  phv.set_parsed(Field::kMetaMsgKind,
                 static_cast<std::uint64_t>(msg.kind));
  phv.set_parsed(Field::kMetaTenant, msg.tenant.value);
  phv.set_parsed(Field::kMetaSlack, msg.slack);
  if (msg.ingress_port.valid()) {
    phv.set_parsed(Field::kMetaIngressPort, msg.ingress_port.value);
  }
  if (msg.egress_port.valid()) {
    phv.set_parsed(Field::kMetaEgressPort, msg.egress_port.value);
  }
  if (msg.from_host) {
    phv.set_parsed(Field::kMetaFromHost, 1);
  }
}

void Pipeline::fill_message_meta(const Phv& phv, Message& msg) const {
  MessageMeta meta;
  meta.has_ipv4 = phv.get(Field::kValidIpv4) != 0;
  meta.has_udp = phv.get(Field::kValidUdp) != 0;
  meta.has_tcp = phv.get(Field::kValidTcp) != 0;
  meta.is_esp = phv.get(Field::kValidEsp) != 0;
  meta.is_kvs = phv.get(Field::kValidKvs) != 0;
  meta.from_wan = phv.get(Field::kMetaFromWan) != 0;
  meta.ip_proto = static_cast<std::uint8_t>(phv.get(Field::kIpProto));
  meta.udp_dst_port =
      static_cast<std::uint16_t>(phv.get(Field::kL4DstPort));
  meta.kvs_op = static_cast<std::uint8_t>(phv.get(Field::kKvsOp));
  meta.kvs_key = phv.get(Field::kKvsKey);
  meta.kvs_request_id =
      static_cast<std::uint32_t>(phv.get(Field::kKvsReqId));
  msg.meta = meta;
  msg.meta_valid = true;
  if (phv.valid(Field::kKvsTenant) && phv.get(Field::kKvsTenant) != 0) {
    msg.tenant = TenantId{
        static_cast<std::uint16_t>(phv.get(Field::kKvsTenant))};
  } else if (phv.modified(Field::kMetaTenant)) {
    msg.tenant = TenantId{
        static_cast<std::uint16_t>(phv.get(Field::kMetaTenant))};
  }
}

void Pipeline::deparse(const Phv& phv, const FieldLocations& locations,
                       Message& msg) const {
  // Field-index order, matching the std::map<Field, ...> iteration order
  // this replaced, so rewrites land in the same byte order.
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const Field field = static_cast<Field>(i);
    if (!phv.modified(field) || !locations.has(field)) continue;
    const FieldLocation& loc = locations[field];
    if (loc.offset + loc.width_bytes > msg.data.size()) continue;
    std::uint64_t v = phv.get(field);
    for (int b = loc.width_bytes - 1; b >= 0; --b) {
      msg.data[loc.offset + b] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }
}

ProcessResult Pipeline::process(Message& msg) {
  ProcessResult result;
  Phv phv;
  FieldLocations locations;

  seed_metadata(msg, phv);
  if (msg.kind == MessageKind::kPacket && !msg.data.empty()) {
    result.parsed = program_->parser.parse(msg.data, phv, &locations);
  } else {
    // Engine-to-engine messages skip the byte parser; programs match on
    // the metadata fields instead (§3.1: requests are treated as packets).
    result.parsed = true;
  }

  // Flow-cache fast path: replay a memoized resolution for this signature.
  // Simulated behaviour is untouched — the same PHV writes, chain, table
  // tallies and counters as a real stage walk; only host time is saved.
  if (cache_ != nullptr) {
    cache_->refresh_generations();
    if (const CachedResolution* hit = cache_->lookup(phv)) {
      std::size_t t = 0;
      for (const Stage& stage : program_->stages) {
        for (const MatchTable& table : stage.tables) {
          table.record_lookup(hit->table_matched[t++] != 0);
        }
      }
      for (const auto& [field, value] : hit->writes) phv.set(field, value);
      if (hit->chain.total_hops() > 0) msg.chain = hit->chain;
      result.drop = phv.get(Field::kMetaDrop) != 0;
      result.queue = phv.get(Field::kMetaQueue);
      fill_message_meta(phv, msg);
      deparse(phv, locations, msg);
      ++msg.rmt_passes;
      ++processed_;
      return result;
    }
  }

  // The pipeline recomputes the route: any hops remaining from a previous
  // pass were consumed up to this point; actions build the new chain.
  chain_scratch_.clear();
  ActionContext ctx{phv, chain_scratch_, regs_, program_->tiles};
  const bool capture = cache_ != nullptr && cache_->active();
  if (capture) matched_scratch_.clear();
  for (const Stage& stage : program_->stages) {
    for (const MatchTable& table : stage.tables) {
      bool matched = false;
      if (const Action* action =
              table.lookup(phv, capture ? &matched : nullptr)) {
        apply_action(*action, ctx);
      }
      if (capture) matched_scratch_.push_back(matched ? 1 : 0);
    }
  }
  if (capture) cache_->insert(matched_scratch_, phv, chain_scratch_);

  if (chain_scratch_.total_hops() > 0) {
    std::swap(msg.chain, chain_scratch_);
  }
  result.drop = phv.get(Field::kMetaDrop) != 0;
  result.queue = phv.get(Field::kMetaQueue);

  fill_message_meta(phv, msg);
  deparse(phv, locations, msg);

  ++msg.rmt_passes;
  ++processed_;
  return result;
}

}  // namespace panic::rmt
