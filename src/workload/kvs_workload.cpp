#include "workload/kvs_workload.h"

#include "engines/ipsec_engine.h"
#include "net/bytes.h"
#include "net/packet.h"

namespace panic::workload {

/// The security association WAN requests arrive under.
constexpr std::uint32_t kWanSpi = 0x1001;

FrameFactory make_kvs_factory(const KvsWorkloadConfig& config) {
  // The Zipf sampler is shared across calls; captured by value in a
  // mutable lambda so the factory is self-contained.
  ZipfDistribution zipf(config.num_keys, config.zipf_skew);
  std::uint32_t esp_seq = 1;
  return [config, zipf, esp_seq](Rng& rng,
                                 std::uint64_t seq) mutable {
    const std::uint64_t key = zipf(rng);
    std::vector<std::uint8_t> frame;
    if (rng.bernoulli(config.get_fraction)) {
      frame = frames::kvs_get(config.client, config.server, config.tenant,
                              key, static_cast<std::uint32_t>(seq));
    } else {
      frame = frames::kvs_set(config.client, config.server, config.tenant,
                              key, static_cast<std::uint32_t>(seq),
                              config.value_size);
    }
    if (config.wan_fraction > 0.0 && rng.bernoulli(config.wan_fraction)) {
      frame = engines::IpsecEngine::encapsulate(frame, kWanSpi, esp_seq++);
    }
    return frame;
  };
}

FrameFiller make_kvs_filler(const KvsWorkloadConfig& config) {
  return [factory = make_kvs_factory(config)](
             Rng& rng, std::uint64_t seq, std::vector<std::uint8_t>& out) {
    out = factory(rng, seq);
  };
}

FrameFactory make_udp_factory(Ipv4Addr src, Ipv4Addr dst,
                              std::size_t frame_bytes,
                              std::uint16_t dst_port, std::uint32_t flows) {
  if (flows == 0) flows = 1;
  return [=](Rng& rng, std::uint64_t seq) {
    (void)rng;
    const std::size_t headers =
        EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize;
    const std::size_t payload =
        frame_bytes > headers ? frame_bytes - headers : 0;
    return FrameBuilder()
        .eth(*MacAddr::parse("02:00:00:00:00:01"),
             *MacAddr::parse("02:00:00:00:00:02"))
        .ipv4(src, dst)
        .udp(static_cast<std::uint16_t>(40000 + seq % flows), dst_port)
        .payload_size(payload)
        .build(frame_bytes);
  };
}

FrameFactory make_min_frame_factory(Ipv4Addr src, Ipv4Addr dst,
                                    std::uint32_t flows) {
  return make_udp_factory(src, dst, kMinFrameBytes, 9, flows);
}

FrameFiller make_udp_filler(Ipv4Addr src, Ipv4Addr dst,
                            std::size_t frame_bytes,
                            std::uint16_t dst_port, std::uint32_t flows) {
  if (flows == 0) flows = 1;
  // The factory's frames differ only in the UDP source port, `40000 + seq
  // % flows`: the UDP checksum is left 0 and payload_size fills the
  // payload by size alone.  So one prototype, built by the factory itself,
  // gives every frame once its source port is written in.
  Rng rng;  // the factory draws nothing from it
  std::vector<std::uint8_t> proto =
      make_udp_factory(src, dst, frame_bytes, dst_port, flows)(rng, 0);
  return [proto = std::move(proto), flows](
             Rng&, std::uint64_t seq, std::vector<std::uint8_t>& out) {
    out.assign(proto.begin(), proto.end());
    ByteWriter(out).patch_u16(EthernetHeader::kSize + Ipv4Header::kSize,
                              static_cast<std::uint16_t>(40000 + seq % flows));
  };
}

FrameFiller make_min_frame_filler(Ipv4Addr src, Ipv4Addr dst,
                                  std::uint32_t flows) {
  return make_udp_filler(src, dst, kMinFrameBytes, 9, flows);
}

}  // namespace panic::workload
