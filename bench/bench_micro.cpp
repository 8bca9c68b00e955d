// Component microbenchmarks (google-benchmark): the per-packet costs of
// every building block, so the cycle-cost models used by the simulator
// can be sanity-checked against real software throughput on the host.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "engines/chacha20.h"
#include "engines/checksum_engine.h"
#include "engines/lz77.h"
#include "engines/regex_nfa.h"
#include "engines/sched_queue.h"
#include "net/checksum.h"
#include "net/packet.h"
#include "noc/mesh.h"
#include "rmt/p4lite.h"
#include "rmt/parser.h"
#include "sim/simulator.h"

namespace panic {
namespace {

const Ipv4Addr kSrc(10, 0, 0, 1);
const Ipv4Addr kDst(10, 0, 0, 2);

void BM_ParseFrame(benchmark::State& state) {
  const auto frame = frames::kvs_get(kSrc, kDst, 1, 42, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_frame(frame));
  }
}
BENCHMARK(BM_ParseFrame);

void BM_RmtParser(benchmark::State& state) {
  const auto frame = frames::kvs_get(kSrc, kDst, 1, 42, 7);
  const auto parser = rmt::make_default_parser();
  for (auto _ : state) {
    rmt::Phv phv;
    benchmark::DoNotOptimize(parser.parse(frame, phv));
  }
}
BENCHMARK(BM_RmtParser);

void BM_ChaCha20(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    engines::ChaCha20 cipher(key, nonce);
    cipher.apply_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1500)->Arg(65536);

void BM_Lz77Compress(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i / 16) % 2 ? 0x20 : static_cast<std::uint8_t>(rng.next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engines::lz77_compress(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Lz77Compress)->Arg(1500)->Arg(65536);

void BM_RegexSearch(benchmark::State& state) {
  const auto re = engines::Regex::compile("(UNION|union) +(SELECT|select)");
  std::string haystack(static_cast<std::size_t>(state.range(0)), 'x');
  haystack += "union  select";
  for (auto _ : state) {
    benchmark::DoNotOptimize(re->search(haystack));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(haystack.size()));
}
BENCHMARK(BM_RegexSearch)->Arg(64)->Arg(1500);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(1500, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1500);
}
BENCHMARK(BM_InternetChecksum);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(1500, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1500);
}
BENCHMARK(BM_Crc32);

void BM_SchedQueue(benchmark::State& state) {
  engines::SchedulerQueue q(engines::SchedKind::kSlack, 1024);
  Rng rng(3);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      auto msg = make_message();
      msg->slack = static_cast<std::uint32_t>(rng.next() & 0xFFFF);
      q.try_enqueue(std::move(msg), 0);
    }
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(q.dequeue(0));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          128);
}
BENCHMARK(BM_SchedQueue);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfDistribution zipf(1000000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_RmtPipelineProcess(benchmark::State& state) {
  auto program = rmt::compile_p4lite(R"(
    parser default;
    stage classify {
      table t ternary(valid_kvs, meta.msg_kind) {
        (0/0, 0/0) prio 1 -> set_slack(5), chain(dma);
      }
    }
  )",
                                     {{"dma", 3}});
  rmt::Pipeline pipeline(
      std::make_shared<const rmt::RmtProgram>(std::move(*program)));

  auto msg = make_message(MessageKind::kPacket);
  msg->data = frames::kvs_get(kSrc, kDst, 1, 42, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.process(*msg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RmtPipelineProcess);

void BM_MeshCycle(benchmark::State& state) {
  // Cost of simulating one cycle of a saturated k x k mesh.
  const int k = static_cast<int>(state.range(0));
  Simulator sim(Frequency::megahertz(500), SimMode::kEventDriven);
  noc::MeshConfig cfg;
  cfg.k = k;
  noc::Mesh mesh(cfg, sim);
  Rng rng(7);
  for (auto _ : state) {
    for (int t = 0; t < mesh.tiles(); ++t) {
      const EngineId src{static_cast<std::uint16_t>(t)};
      if (mesh.ni(src).can_inject()) {
        auto msg = make_message();
        msg->data.resize(64);
        const EngineId dst{static_cast<std::uint16_t>(rng.uniform_int(
            0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
        mesh.ni(src).inject(std::move(msg), dst, sim.now());
      }
      while (mesh.ni(src).try_receive(sim.now()) != nullptr) {
      }
    }
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MeshCycle)->Arg(4)->Arg(8);

}  // namespace
}  // namespace panic

BENCHMARK_MAIN();
