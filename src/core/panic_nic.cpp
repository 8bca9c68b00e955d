#include "core/panic_nic.h"

#include <cassert>
#include <stdexcept>

#include "core/program_factory.h"

namespace panic::core {

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
  topo.dma = take();
  topo.pcie = take();
  topo.ipsec_rx = take();
  topo.ipsec_tx = take();
  topo.kvs = take();
  topo.rdma = take();
  topo.compression = take();
  topo.checksum = take();
  topo.regex = take();
  topo.tso = take();
  topo.rate_limiter = take();
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

  engines::EngineConfig ecfg;
  ecfg.sched_policy = config_.sched_policy;
  ecfg.drop_policy = config_.drop_policy;
  ecfg.queue_capacity = config_.engine_queue_capacity;
  ecfg.no_route = config_.on_no_route;
  ecfg.no_route_depth = config_.no_route_depth;

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

  // Ethernet ports: RX default route goes to their home RMT engine.
  for (int i = 0; i < config_.eth_ports; ++i) {
    auto* port = adopt(new engines::EthernetPortEngine(
        "eth" + std::to_string(i), &mesh_->ni(topo_.eth_ports[static_cast<std::size_t>(i)]),
        ecfg, config_.line_rate, config_.freq));
    port->lookup_table().set_default(home_rmt());
    eth_ports_.push_back(port);
  }

  // RMT engines: kind routes for pipeline-mediated engine requests and no
  // packet default (the program always builds a chain for packets).
  RmtEngineConfig rcfg;
  rcfg.input_queue = config_.rmt_input_queue;
  rcfg.sched_policy = config_.sched_policy;
  rcfg.cache = config_.rmt_cache;
  rcfg.no_route = config_.on_no_route;
  rcfg.no_route_depth = config_.no_route_depth;
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

  dma_ = adopt(new engines::DmaEngine("dma", &mesh_->ni(topo_.dma), ecfg,
                                      config_.dma, &host_));
  dma_->lookup_table().set_kind_route(MessageKind::kInterrupt, topo_.pcie);

  engines::PcieConfig pcie_cfg = config_.pcie;
  pcie_cfg.eth_ports = topo_.eth_ports;
  pcie_ = adopt(new engines::PcieEngine("pcie", &mesh_->ni(topo_.pcie), ecfg,
                                        pcie_cfg));
  pcie_->lookup_table().set_kind_route(MessageKind::kDescriptorFetch,
                                       topo_.dma);
  pcie_->lookup_table().set_kind_route(MessageKind::kDmaRead, topo_.dma);
  pcie_->lookup_table().set_kind_route(MessageKind::kPacket, home_rmt());

  host_driver_ = std::make_unique<engines::HostDriver>(&host_, pcie_,
                                                       config_.host_driver);

  engines::IpsecConfig rx_cfg;
  rx_cfg.mode = engines::IpsecMode::kDecrypt;
  ipsec_rx_ = adopt(new engines::IpsecEngine(
      "ipsec_rx", &mesh_->ni(topo_.ipsec_rx), ecfg, rx_cfg));
  ipsec_rx_->lookup_table().set_default(home_rmt());

  engines::IpsecConfig tx_cfg;
  tx_cfg.mode = engines::IpsecMode::kEncrypt;
  ipsec_tx_ = adopt(new engines::IpsecEngine(
      "ipsec_tx", &mesh_->ni(topo_.ipsec_tx), ecfg, tx_cfg));

  engines::KvsCacheConfig kvs_cfg;
  kvs_cfg.mode = config_.kvs_mode;
  kvs_cfg.capacity_entries = config_.kvs_capacity;
  kvs_cfg.rdma_engine = topo_.rdma;
  kvs_cfg.reply_route = home_rmt();
  kvs_ = adopt(new engines::KvsCacheEngine("kvs", &mesh_->ni(topo_.kvs), ecfg,
                                           kvs_cfg, &host_));
  // Misses fall off the chain's end toward the host; replies generated in
  // kValue mode go back through the pipeline for egress routing.
  kvs_->lookup_table().set_kind_route(MessageKind::kPacket, topo_.dma);
  kvs_->lookup_table().set_default(home_rmt());

  engines::RdmaConfig rdma_cfg;
  rdma_cfg.dma_engine = topo_.dma;
  rdma_ = adopt(new engines::RdmaEngine("rdma", &mesh_->ni(topo_.rdma), ecfg,
                                        rdma_cfg));
  rdma_->lookup_table().set_default(home_rmt());

  compression_ = adopt(new engines::CompressionEngine(
      "compression", &mesh_->ni(topo_.compression), ecfg,
      engines::CompressionConfig{}));
  compression_->lookup_table().set_default(home_rmt());

  checksum_ = adopt(new engines::ChecksumEngine(
      "checksum", &mesh_->ni(topo_.checksum), ecfg,
      engines::ChecksumConfig{}));
  checksum_->lookup_table().set_default(home_rmt());

  regex_ = adopt(new engines::RegexEngine("regex", &mesh_->ni(topo_.regex),
                                          ecfg, engines::RegexConfig{}));
  regex_->lookup_table().set_default(home_rmt());

  tso_ = adopt(new engines::TsoEngine("tso", &mesh_->ni(topo_.tso), ecfg,
                                      engines::TsoConfig{.mss = config_.tso_mss}));
  tso_->lookup_table().set_default(home_rmt());

  rate_limiter_ = adopt(new engines::RateLimiterEngine(
      "rate_limiter", &mesh_->ni(topo_.rate_limiter), ecfg,
      engines::RateLimiterConfig{}));
  rate_limiter_->lookup_table().set_default(home_rmt());
  rate_limiter_->lookup_table().set_kind_route(MessageKind::kPacket,
                                               topo_.dma);

  for (int i = 0; i < config_.aux_engines; ++i) {
    auto* aux = adopt(new engines::DelayEngine(
        "aux" + std::to_string(i),
        &mesh_->ni(topo_.aux[static_cast<std::size_t>(i)]), ecfg,
        config_.aux_fixed_cycles, config_.aux_cycles_per_byte));
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
  if (faulty || config_.enable_watchdog) {
    // Recovery-time telemetry: delivered == everything that reached a
    // terminal sink (host RX via DMA, wire TX via the MACs) — the same
    // "delivered" the conservation ledger counts.  The tracker and
    // watchdog stay serial components in the parallel kernel.
    recovery_ = adopt(new fault::RecoveryTracker(config_.recovery));
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
  if (faulty) injector_->arm(sim);

  // --- Spatial sharding for the parallel kernel. ---
  // Contiguous row-major tile bands, one per shard: minimal boundary cuts
  // under XY routing, and every tile's router, NI, and engine land on the
  // same shard so intra-tile interactions never cross a cut.  The
  // watchdog (and any workload source added later) stays serial — it
  // probes every tile and must run after the boundary exchange.
  if (sim.mode() == SimMode::kParallelShards) {
    const int shards = sim.num_shards();
    const long tiles = mesh_->tiles();
    std::vector<int> tile_shard(static_cast<std::size_t>(tiles));
    for (long t = 0; t < tiles; ++t) {
      tile_shard[static_cast<std::size_t>(t)] =
          static_cast<int>(t * shards / tiles);
    }
    // Affinity: the KVS engine is the only component besides the DMA
    // engine that touches host memory from inside the parallel phase;
    // co-locating their tiles on one shard serializes those accesses.
    tile_shard[topo_.kvs.value] = tile_shard[topo_.dma.value];
    mesh_->assign_shards(tile_shard, sim);

    auto tile_of = [&](EngineId tile) {
      return tile_shard[static_cast<std::size_t>(tile.value)];
    };
    for (std::size_t i = 0; i < eth_ports_.size(); ++i) {
      sim.set_shard(eth_ports_[i], tile_of(topo_.eth_ports[i]));
    }
    for (std::size_t i = 0; i < rmt_engines_.size(); ++i) {
      sim.set_shard(rmt_engines_[i], tile_of(topo_.rmt_engines[i]));
    }
    sim.set_shard(dma_, tile_of(topo_.dma));
    sim.set_shard(pcie_, tile_of(topo_.pcie));
    sim.set_shard(ipsec_rx_, tile_of(topo_.ipsec_rx));
    sim.set_shard(ipsec_tx_, tile_of(topo_.ipsec_tx));
    sim.set_shard(kvs_, tile_of(topo_.kvs));
    sim.set_shard(rdma_, tile_of(topo_.rdma));
    sim.set_shard(compression_, tile_of(topo_.compression));
    sim.set_shard(checksum_, tile_of(topo_.checksum));
    sim.set_shard(regex_, tile_of(topo_.regex));
    sim.set_shard(tso_, tile_of(topo_.tso));
    sim.set_shard(rate_limiter_, tile_of(topo_.rate_limiter));
    for (std::size_t i = 0; i < aux_.size(); ++i) {
      sim.set_shard(aux_[i], tile_of(topo_.aux[i]));
    }
    shard_layout_ = "tile-bands:" + std::to_string(shards);
  }

  sim.telemetry().metrics().expose_gauge("nic.rmt_passes", [this] {
    return static_cast<double>(total_rmt_passes());
  });
}

void PanicNic::inject_rx(int port, std::vector<std::uint8_t> frame,
                         Cycle now, TenantId tenant) {
  eth_ports_[static_cast<std::size_t>(port)]->deliver_rx(std::move(frame),
                                                         now, now, tenant);
}

std::uint64_t PanicNic::total_rmt_passes() const {
  std::uint64_t total = 0;
  for (const auto* engine : rmt_engines_) {
    total += engine->messages_processed();
  }
  return total;
}

}  // namespace panic::core
