// Robustness "fuzz" properties: every decoder in the system must either
// parse or reject arbitrary bytes — never crash, never read out of
// bounds, never loop.  Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "engines/ipsec_engine.h"
#include "engines/lz77.h"
#include "engines/tso_engine.h"
#include "net/packet.h"
#include "rmt/parser.h"

namespace panic {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(FuzzRobustness, ParseFrameOnRandomBytes) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size = rng.uniform_int(0, 256);
    const auto bytes = random_bytes(rng, size);
    // Must not crash; result (parse or reject) is irrelevant.
    (void)parse_frame(bytes);
  }
}

TEST(FuzzRobustness, RmtParserOnRandomBytes) {
  Rng rng(0xBEEF);
  const auto parser = rmt::make_default_parser();
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size = rng.uniform_int(0, 200);
    const auto bytes = random_bytes(rng, size);
    rmt::Phv phv;
    (void)parser.parse(bytes, phv);
  }
}

TEST(FuzzRobustness, MutatedValidFramesNeverCrashDecoders) {
  Rng rng(0xCAFE);
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  const auto parser = rmt::make_default_parser();
  const std::vector<std::vector<std::uint8_t>> seeds = {
      frames::min_udp(src, dst),
      frames::kvs_get(src, dst, 1, 42, 7),
      frames::kvs_set(src, dst, 1, 42, 7, 200),
      engines::IpsecEngine::encapsulate(frames::kvs_get(src, dst, 1, 1, 1),
                                        0x1001, 1),
  };
  for (int trial = 0; trial < 3000; ++trial) {
    auto frame = seeds[rng.uniform_int(0, seeds.size() - 1)];
    // 1-4 byte flips.
    const auto flips = rng.uniform_int(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      frame[rng.uniform_int(0, frame.size() - 1)] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    // Occasional truncation.
    if (rng.bernoulli(0.3)) {
      frame.resize(rng.uniform_int(0, frame.size()));
    }
    (void)parse_frame(frame);
    rmt::Phv phv;
    (void)parser.parse(frame, phv);
    (void)engines::IpsecEngine::decapsulate(frame);
    (void)engines::TsoEngine::segment_frame(frame, 100);
  }
}

TEST(FuzzRobustness, Lz77DecompressOnRandomBytes) {
  Rng rng(0xD00D);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size = rng.uniform_int(0, 300);
    const auto bytes = random_bytes(rng, size);
    const auto result = engines::lz77_decompress(bytes);
    // If it decodes, re-compressing and decompressing must round-trip.
    if (result.has_value()) {
      const auto packed = engines::lz77_compress(*result);
      const auto again = engines::lz77_decompress(packed);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, *result);
    }
  }
}

TEST(FuzzRobustness, ChainHeaderParseOnRandomBytes) {
  Rng rng(0xABBA);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size = rng.uniform_int(0, 64);
    const auto bytes = random_bytes(rng, size);
    ByteReader r(bytes);
    const auto chain = ChainHeader::parse(r);
    if (chain.has_value()) {
      // Whatever parsed must re-serialize to a prefix-consistent form.
      std::vector<std::uint8_t> out;
      ByteWriter w(out);
      chain->serialize(w);
      EXPECT_EQ(out.size(), chain->wire_size());
    }
  }
}

TEST(FuzzRobustness, MutatedEspNeverDecryptsSuccessfully) {
  // Security property, probabilistic but with a 64-bit tag effectively
  // certain: any bit flip in the ESP payload must fail authentication.
  Rng rng(0x5EC);
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  const auto clean = engines::IpsecEngine::encapsulate(
      frames::kvs_get(src, dst, 1, 9, 9), 0x2002, 7);
  const std::size_t payload_start =
      EthernetHeader::kSize + Ipv4Header::kSize + EspHeader::kSize;
  int parsed_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto frame = clean;
    frame[payload_start +
          rng.uniform_int(0, frame.size() - payload_start - 1)] ^=
        static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    if (engines::IpsecEngine::decapsulate(frame).has_value()) ++parsed_ok;
  }
  EXPECT_EQ(parsed_ok, 0);
}

}  // namespace
}  // namespace panic
