#include "core/panic_nic.h"

#include <cassert>
#include <stdexcept>

#include "core/program_factory.h"

namespace panic::core {

rmt::SymbolTable PanicTopology::tile_names() const {
  rmt::SymbolTable names;
  for (const FixedEngine& e : kFixedEngines) {
    names[e.name] = (this->*e.tile).value;
  }
  for (std::size_t i = 0; i < eth_ports.size(); ++i) {
    names["eth" + std::to_string(i)] = eth_ports[i].value;
  }
  for (std::size_t i = 0; i < aux.size(); ++i) {
    names["aux" + std::to_string(i)] = aux[i].value;
  }
  for (std::size_t i = 0; i < spare.size(); ++i) {
    names["spare" + std::to_string(i)] = spare[i].value;
  }
  return names;
}

PanicTopology PanicNic::plan_topology(const PanicConfig& config) {
  PanicTopology topo;
  const int tiles = config.mesh.k * config.mesh.k;
  int next = 0;
  auto take = [&]() {
    if (next >= tiles) {
      throw std::runtime_error(
          "PanicConfig: mesh too small for the configured engines");
    }
    return EngineId{static_cast<std::uint16_t>(next++)};
  };

  // Interleave ports and RMT engines so each port sits next to its home
  // pipeline and the port->RMT flows use disjoint mesh links (sequential
  // placement would funnel every port through the same row segment).
  const int head = std::max(config.eth_ports, config.rmt_engines);
  for (int i = 0; i < head; ++i) {
    if (i < config.eth_ports) topo.eth_ports.push_back(take());
    if (i < config.rmt_engines) topo.rmt_engines.push_back(take());
  }
  for (const FixedEngine& e : kFixedEngines) topo.*e.tile = take();
  for (int i = 0; i < config.aux_engines; ++i) topo.aux.push_back(take());
  for (int i = 0; i < config.spare_tiles; ++i) topo.spare.push_back(take());
  return topo;
}

PanicNic::PanicNic(const PanicConfig& config, Simulator& sim)
    : config_(config), topo_(plan_topology(config)) {
  assert(config_.eth_ports >= 1);
  assert(config_.rmt_engines >= 1);

  mesh_ = std::make_unique<noc::Mesh>(config_.mesh, sim);
  const auto program = build_default_program(config_, topo_);

  // Every tile, offload or RMT, applies the same degraded-mode admission.
  const engines::NoRouteConfig no_route{config_.on_no_route,
                                        config_.no_route_depth};
  engines::EngineConfig ecfg;
  ecfg.sched_policy = config_.sched_policy;
  ecfg.drop_policy = config_.drop_policy;
  ecfg.queue_capacity = config_.engine_queue_capacity;
  ecfg.no_route = no_route;

  // Round-robin assignment of a "home" RMT engine, spreading load across
  // the parallel pipelines.
  int rmt_rr = 0;
  auto home_rmt = [&]() {
    const EngineId id = topo_.rmt_engines[static_cast<std::size_t>(
        rmt_rr % config_.rmt_engines)];
    ++rmt_rr;
    return id;
  };

  auto adopt = [&](auto* engine) {
    owned_.emplace_back(engine);
    sim.add(engine);
    return engine;
  };

  // 100 Gb/s Ethernet ports: RX default route goes to their home RMT
  // engine.
  for (int i = 0; i < config_.eth_ports; ++i) {
    auto* port = adopt(new engines::EthernetPortEngine(
        "eth" + std::to_string(i), &mesh_->ni(topo_.eth_ports[static_cast<std::size_t>(i)]),
        ecfg, DataRate::gbps(100), config_.freq));
    port->lookup_table().set_default(home_rmt());
    eth_ports_.push_back(port);
  }

  // RMT engines: kind routes for pipeline-mediated engine requests and no
  // packet default (the program always builds a chain for packets).
  RmtEngineConfig rcfg;
  rcfg.input_queue = config_.rmt_input_queue;
  rcfg.sched_policy = config_.sched_policy;
  rcfg.cache = config_.rmt_cache;
  rcfg.no_route = no_route;
  for (int i = 0; i < config_.rmt_engines; ++i) {
    auto* engine = adopt(new RmtEngine(
        "rmt" + std::to_string(i),
        &mesh_->ni(topo_.rmt_engines[static_cast<std::size_t>(i)]), program,
        rcfg));
    engine->lookup_table().set_kind_route(MessageKind::kDmaRead, topo_.dma);
    engine->lookup_table().set_kind_route(MessageKind::kDmaWrite, topo_.dma);
    engine->lookup_table().set_kind_route(MessageKind::kDescriptorFetch,
                                          topo_.dma);
    engine->lookup_table().set_kind_route(MessageKind::kInterrupt,
                                          topo_.pcie);
    rmt_engines_.push_back(engine);
  }

  // Builds the fixed engine on `tile` into `slot`, named by its roster
  // entry.
  auto fixed = [&]<typename E>(E*& slot, EngineId PanicTopology::*tile,
                               const auto&... args) {
    for (const FixedEngine& e : kFixedEngines) {
      if (e.tile != tile) continue;
      slot = adopt(new E(e.name, &mesh_->ni(topo_.*tile), ecfg, args...));
    }
  };

  fixed(dma_, &PanicTopology::dma, config_.dma, &host_);
  dma_->lookup_table().set_kind_route(MessageKind::kInterrupt, topo_.pcie);

  engines::PcieConfig pcie_cfg;
  pcie_cfg.eth_ports = topo_.eth_ports;
  fixed(pcie_, &PanicTopology::pcie, pcie_cfg);
  pcie_->lookup_table().set_kind_route(MessageKind::kDescriptorFetch,
                                       topo_.dma);
  pcie_->lookup_table().set_kind_route(MessageKind::kDmaRead, topo_.dma);
  pcie_->lookup_table().set_kind_route(MessageKind::kPacket, home_rmt());

  host_driver_ = std::make_unique<engines::HostDriver>(&host_, pcie_,
                                                       config_.host_driver);

  engines::IpsecConfig rx_cfg;
  rx_cfg.mode = engines::IpsecMode::kDecrypt;
  fixed(ipsec_rx_, &PanicTopology::ipsec_rx, rx_cfg);
  ipsec_rx_->lookup_table().set_default(home_rmt());

  engines::IpsecConfig tx_cfg;
  tx_cfg.mode = engines::IpsecMode::kEncrypt;
  fixed(ipsec_tx_, &PanicTopology::ipsec_tx, tx_cfg);

  engines::KvsCacheConfig kvs_cfg;
  kvs_cfg.mode = config_.kvs_mode;
  kvs_cfg.capacity_entries = config_.kvs_capacity;
  kvs_cfg.rdma_engine = topo_.rdma;
  kvs_cfg.reply_route = home_rmt();
  fixed(kvs_, &PanicTopology::kvs, kvs_cfg, &host_);
  // Misses fall off the chain's end toward the host; replies generated in
  // kValue mode go back through the pipeline for egress routing.
  kvs_->lookup_table().set_kind_route(MessageKind::kPacket, topo_.dma);
  kvs_->lookup_table().set_default(home_rmt());

  engines::RdmaConfig rdma_cfg;
  rdma_cfg.dma_engine = topo_.dma;
  fixed(rdma_, &PanicTopology::rdma, rdma_cfg);
  rdma_->lookup_table().set_default(home_rmt());

  fixed(compression_, &PanicTopology::compression,
        engines::CompressionConfig{});
  compression_->lookup_table().set_default(home_rmt());

  fixed(checksum_, &PanicTopology::checksum, engines::ChecksumConfig{});
  checksum_->lookup_table().set_default(home_rmt());

  fixed(regex_, &PanicTopology::regex, engines::RegexConfig{});
  regex_->lookup_table().set_default(home_rmt());

  fixed(tso_, &PanicTopology::tso, engines::TsoConfig{});
  tso_->lookup_table().set_default(home_rmt());

  fixed(rate_limiter_, &PanicTopology::rate_limiter,
        engines::RateLimiterConfig{});
  rate_limiter_->lookup_table().set_default(home_rmt());
  rate_limiter_->lookup_table().set_kind_route(MessageKind::kPacket,
                                               topo_.dma);

  for (int i = 0; i < config_.aux_engines; ++i) {
    auto* aux = adopt(new engines::DelayEngine(
        "aux" + std::to_string(i),
        &mesh_->ni(topo_.aux[static_cast<std::size_t>(i)]), ecfg,
        config_.aux_fixed_cycles));
    aux->lookup_table().set_default(home_rmt());
    aux_.push_back(aux);
  }

  // --- Fault injection, detection, and recovery wiring. ---
  // The injector always exists (its steering directory is what engines
  // consult; empty => zero-cost), but faults are only armed and the
  // watchdog/TX-retry only attached when the config asks for them.
  injector_ = std::make_unique<fault::FaultInjector>(config_.faults);

  std::vector<engines::Engine*> all_engines;
  for (auto* port : eth_ports_) all_engines.push_back(port);
  all_engines.insert(all_engines.end(),
                     {dma_, pcie_, ipsec_rx_, ipsec_tx_, kvs_, rdma_,
                      compression_, checksum_, regex_, tso_, rate_limiter_});
  for (auto* aux : aux_) all_engines.push_back(aux);

  for (auto* engine : all_engines) {
    injector_->register_engine(engine);
    engine->set_steering(&injector_->steering());
  }
  for (auto* engine : rmt_engines_) {
    engine->set_steering(&injector_->steering());
  }
  for (int t = 0; t < mesh_->tiles(); ++t) {
    injector_->register_router(
        t, &mesh_->router(EngineId{static_cast<std::uint16_t>(t)}));
  }
  // Aux engines are interchangeable pass-through delays: a dead one fails
  // over to any live sibling with identical behaviour.
  if (topo_.aux.size() > 1) injector_->add_equivalence_group(topo_.aux);

  const bool faulty = !config_.faults.empty();
  if (faulty) {
    // Recovery-time telemetry: delivered == everything that reached a
    // terminal sink (host RX via DMA, wire TX via the MACs) — the same
    // "delivered" the conservation ledger counts.
    recovery_ = adopt(new fault::RecoveryTracker());
    recovery_->set_throughput_probe([this] {
      std::uint64_t delivered = dma_->packets_to_host();
      for (const auto* port : eth_ports_) {
        delivered += port->tx_meter().packets();
      }
      return delivered;
    });
    injector_->set_recovery_tracker(recovery_);

    watchdog_ = adopt(new fault::Watchdog(config_.watchdog));
    watchdog_->set_escalation(
        [this](const std::string& probe, Cycle at, bool flagged) {
          recovery_->on_watchdog(probe, at, flagged);
        });
    for (auto* engine : all_engines) {
      watchdog_->add_probe(
          engine->name(), [engine] { return engine->progress(); },
          [engine] { return engine->has_pending_work(); });
    }
    for (auto* engine : rmt_engines_) {
      watchdog_->add_probe(
          engine->name(), [engine] { return engine->progress(); },
          [engine] { return engine->has_pending_work(); });
    }
    for (int t = 0; t < mesh_->tiles(); ++t) {
      auto& router = mesh_->router(EngineId{static_cast<std::uint16_t>(t)});
      watchdog_->add_probe("router" + std::to_string(t),
                           [&router] { return router.progress(); },
                           [&router] { return router.has_pending_flits(); });
    }
    mesh_->attach_router_watchdog();
  }
  if (faulty || config_.enable_tx_retry) host_driver_->attach(sim);
  if (faulty) {
    // A plan naming a target this NIC does not have is a configuration
    // error, not a fault that never fires.
    std::string error;
    if (!injector_->arm(sim, &error)) {
      throw std::runtime_error("fault " + error);
    }
  }

  sim.telemetry().metrics().expose_gauge("nic.rmt_passes", [this] {
    return static_cast<double>(total_rmt_passes());
  });
}

std::uint64_t PanicNic::total_rmt_passes() const {
  std::uint64_t total = 0;
  for (const auto* engine : rmt_engines_) {
    total += engine->messages_processed();
  }
  return total;
}

}  // namespace panic::core
