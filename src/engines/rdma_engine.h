// RDMA engine (§3.2): receives KVS GETs that hit in the location cache,
// issues a DMA read for the value, and when the completion returns
// generates the reply packet and injects it back toward the wire — the
// host CPU never sees the request.
#pragma once

#include <unordered_map>

#include "engines/engine.h"

namespace panic::engines {

struct RdmaConfig {
  EngineId dma_engine;  ///< where DMA reads are sent
};

class RdmaEngine : public Engine {
 public:
  RdmaEngine(std::string name, noc::NetworkInterface* ni,
             const EngineConfig& config, const RdmaConfig& rdma);

  std::uint64_t requests_issued() const { return issued_; }
  std::uint64_t replies_generated() const { return replies_; }
  std::uint64_t overflow_drops() const { return overflow_; }

  void register_telemetry(telemetry::Telemetry& t) override;

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  struct PendingOp {
    std::uint16_t tenant = 0;
    std::uint64_t key = 0;
    std::uint32_t request_id = 0;
    std::uint32_t src_ip = 0;  ///< requester (reply dst)
    std::uint32_t dst_ip = 0;  ///< server (reply src)
    std::uint32_t slack = 0;
    Cycle created_at = 0;
    Cycle nic_ingress_at = 0;
    EngineId ingress_port;
  };

  /// Request ids are per-client sequence numbers, so two tenants' GETs
  /// can carry the same id at once: an outstanding read is identified by
  /// the tenant and the id together.
  static std::uint64_t op_key(TenantId tenant, std::uint32_t request_id) {
    return static_cast<std::uint64_t>(tenant.value) << 32 | request_id;
  }

  RdmaConfig rdma_;
  std::unordered_map<std::uint64_t, PendingOp> pending_;  // by op_key

  std::uint64_t issued_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace panic::engines
