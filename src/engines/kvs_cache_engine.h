// On-NIC KVS cache engine (§2.2/§3.2): "the NIC can cache the location of
// values for hot keys and use DMA to directly return replies, completely
// bypassing the CPU."
//
// Two cache modes:
//  * kLocation (the paper's design): the cache maps hot keys to host
//    memory locations; a GET hit is forwarded to the RDMA engine, which
//    DMAs the value and generates the reply.
//  * kValue: small values are cached in engine SRAM and the reply is
//    generated right here (ablation of the design choice).
//
// Misses are forwarded along the chain (to the DMA engine → host receive
// queue, per the §3.2 walk-through).  SETs update the cache index and are
// forwarded to the host log.
#pragma once

#include <list>
#include <unordered_map>

#include "engines/engine.h"
#include "engines/host_memory.h"

namespace panic::engines {

enum class KvsCacheMode { kLocation, kValue };

struct KvsCacheConfig {
  KvsCacheMode mode = KvsCacheMode::kLocation;
  std::size_t capacity_entries = 1024;
  EngineId rdma_engine;      ///< where location hits go
  EngineId reply_route;      ///< where kValue-mode replies are injected
                             ///< (normally an RMT engine for egress routing)
};

class KvsCacheEngine : public Engine {
 public:
  KvsCacheEngine(std::string name, noc::NetworkInterface* ni,
                 const EngineConfig& config, const KvsCacheConfig& kvs,
                 HostMemory* host);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t sets() const { return sets_; }
  std::size_t entries() const { return index_.size(); }

  void register_telemetry(telemetry::Telemetry& t) override;

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  struct Entry {
    std::uint64_t host_addr = 0;
    std::uint32_t length = 0;
    std::vector<std::uint8_t> value;  // kValue mode only
    std::list<std::uint64_t>::iterator lru_it;
  };

  void touch(std::uint64_t key, Entry& entry);
  void insert(std::uint64_t key, Entry entry);

  bool handle_get(Message& msg, Cycle now);
  bool handle_set(Message& msg, Cycle now);

  KvsCacheConfig kvs_;
  HostMemory* host_;

  std::unordered_map<std::uint64_t, Entry> index_;
  std::list<std::uint64_t> lru_;  // front = most recent

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t sets_ = 0;
};

}  // namespace panic::engines
