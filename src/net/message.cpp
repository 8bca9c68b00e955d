#include "net/message.h"

#include <atomic>

#include "net/conservation.h"
#include "net/message_pool.h"

namespace panic {

const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPacket: return "packet";
    case MessageKind::kDmaRead: return "dma-read";
    case MessageKind::kDmaWrite: return "dma-write";
    case MessageKind::kDmaCompletion: return "dma-completion";
    case MessageKind::kDescriptorFetch: return "descriptor-fetch";
    case MessageKind::kInterrupt: return "interrupt";
    case MessageKind::kRdmaRequest: return "rdma-request";
    case MessageKind::kDoorbell: return "doorbell";
  }
  return "?";
}

const char* to_string(MessageFate fate) {
  switch (fate) {
    case MessageFate::kInFlight: return "in-flight";
    case MessageFate::kDelivered: return "delivered";
    case MessageFate::kDropped: return "dropped";
    case MessageFate::kConsumed: return "consumed";
    case MessageFate::kFaulted: return "faulted";
    case MessageFate::kShed: return "shed";
  }
  return "?";
}

void Message::reset_for_reuse() {
  id = MessageId{};
  kind = MessageKind::kPacket;
  data.clear();   // keeps capacity: the recycled packet-byte buffer
  tenant = TenantId{};
  chain.clear();  // keeps the hop vector's capacity too
  slack = 0;
  meta = MessageMeta{};
  meta_valid = false;
  reply_to = EngineId{};
  dma_addr = 0;
  dma_bytes = 0;
  ingress_port = EngineId{};
  egress_port = EngineId{};
  from_host = false;
  created_at = 0;
  nic_ingress_at = 0;
  rmt_passes = 0;
  noc_hops = 0;
  engines_visited = 0;
  fate = MessageFate::kInFlight;
}

void MessageDeleter::operator()(Message* msg) const noexcept {
  MessagePool::instance().release(msg);
}

MessagePtr make_message(MessageKind kind) {
  static std::atomic<std::uint64_t> next_id{1};
  ConservationLedger::instance().on_create();
  MessagePtr msg(MessagePool::instance().acquire());
  msg->id = MessageId{next_id.fetch_add(1, std::memory_order_relaxed)};
  msg->kind = kind;
  return msg;
}

void recycle_message(MessagePtr msg) {
  msg.reset();  // the deleter does the recycling
}

}  // namespace panic
