#include "net/packet.h"

#include <cassert>

namespace panic {

std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  ParsedFrame out;
  const auto eth = EthernetHeader::parse(r);
  if (!eth) return std::nullopt;
  out.eth = *eth;

  if (out.eth.ether_type != kEtherTypeIpv4) {
    out.payload_offset = r.offset();
    out.payload_size = r.remaining();
    return out;
  }

  const auto ipv4 = Ipv4Header::parse(r);
  if (!ipv4) return std::nullopt;
  out.ipv4 = *ipv4;
  // Trust total_length to delimit the L3 payload (frames may be padded to
  // the Ethernet minimum).
  if (ipv4->total_length < Ipv4Header::kSize) return std::nullopt;
  const std::size_t l3_payload = ipv4->total_length - Ipv4Header::kSize;
  if (l3_payload > r.remaining()) return std::nullopt;

  switch (ipv4->protocol) {
    case kIpProtoUdp: {
      const auto udp = UdpHeader::parse(r);
      if (!udp) return std::nullopt;
      out.udp = *udp;
      if (udp->length < UdpHeader::kSize ||
          udp->length > l3_payload) {
        return std::nullopt;
      }
      std::size_t app_size = udp->length - UdpHeader::kSize;
      const bool kvs_port =
          udp->dst_port == kKvsUdpPort || udp->src_port == kKvsUdpPort;
      if (kvs_port && app_size >= KvsHeader::kSize) {
        // Peek via a sub-reader so a non-KVS payload on the KVS port is
        // still delivered as an opaque UDP payload.
        ByteReader peek(frame.subspan(r.offset(), app_size));
        if (const auto kvs = KvsHeader::parse(peek)) {
          out.kvs = *kvs;
          r.skip(KvsHeader::kSize);
          app_size -= KvsHeader::kSize;
        }
      }
      out.payload_offset = r.offset();
      out.payload_size = app_size;
      return out;
    }
    case kIpProtoTcp: {
      const auto tcp = TcpHeader::parse(r);
      if (!tcp) return std::nullopt;
      out.tcp = *tcp;
      out.payload_offset = r.offset();
      out.payload_size = l3_payload >= TcpHeader::kSize
                             ? l3_payload - TcpHeader::kSize
                             : 0;
      return out;
    }
    case kIpProtoEsp: {
      const auto esp = EspHeader::parse(r);
      if (!esp) return std::nullopt;
      out.esp = *esp;
      out.payload_offset = r.offset();
      out.payload_size =
          l3_payload >= EspHeader::kSize ? l3_payload - EspHeader::kSize : 0;
      return out;
    }
    default:
      out.payload_offset = r.offset();
      out.payload_size = l3_payload;
      return out;
  }
}

FrameBuilder& FrameBuilder::eth(MacAddr src, MacAddr dst,
                                std::uint16_t ether_type) {
  spec_.has_eth = true;
  spec_.eth.src = src;
  spec_.eth.dst = dst;
  spec_.eth.ether_type = ether_type;
  return *this;
}

FrameBuilder& FrameBuilder::ipv4(Ipv4Addr src, Ipv4Addr dst,
                                 std::uint8_t dscp, std::uint8_t ttl) {
  spec_.has_ipv4 = true;
  spec_.ipv4.src = src;
  spec_.ipv4.dst = dst;
  spec_.ipv4.dscp = dscp;
  spec_.ipv4.ttl = ttl;
  return *this;
}

FrameBuilder& FrameBuilder::udp(std::uint16_t src_port,
                                std::uint16_t dst_port) {
  spec_.has_udp = true;
  spec_.udp.src_port = src_port;
  spec_.udp.dst_port = dst_port;
  return *this;
}

FrameBuilder& FrameBuilder::tcp(std::uint16_t src_port,
                                std::uint16_t dst_port, std::uint32_t seq,
                                std::uint32_t ack, std::uint8_t flags) {
  spec_.has_tcp = true;
  spec_.tcp.src_port = src_port;
  spec_.tcp.dst_port = dst_port;
  spec_.tcp.seq = seq;
  spec_.tcp.ack = ack;
  spec_.tcp.flags = flags;
  return *this;
}

FrameBuilder& FrameBuilder::esp(std::uint32_t spi, std::uint32_t seq) {
  spec_.has_esp = true;
  spec_.esp.spi = spi;
  spec_.esp.seq = seq;
  return *this;
}

FrameBuilder& FrameBuilder::kvs(const KvsHeader& header) {
  spec_.has_kvs = true;
  spec_.kvs = header;
  return *this;
}

FrameBuilder& FrameBuilder::payload(std::span<const std::uint8_t> data) {
  spec_.payload.assign(data.begin(), data.end());
  return *this;
}

FrameBuilder& FrameBuilder::payload_size(std::size_t size) {
  spec_.payload.resize(size);
  // Deterministic pseudo-random fill so compression/crypto engines see
  // realistic (non-zero) data.
  std::uint64_t x = 0x243F6A8885A308D3ull ^ size;
  for (auto& b : spec_.payload) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return *this;
}

std::vector<std::uint8_t> FrameBuilder::build(std::size_t min_size) const {
  std::vector<std::uint8_t> out;
  build_into(out, min_size);
  return out;
}

void FrameBuilder::build_into(std::vector<std::uint8_t>& out,
                              std::size_t min_size) const {
  assert(spec_.has_eth && "frame must have an Ethernet layer");
  Spec spec = spec_;  // local copy so we can fix up lengths

  // Compute layer sizes innermost-out.
  std::size_t app_size = spec.payload.size();
  if (spec.has_kvs) app_size += KvsHeader::kSize;

  std::size_t l4_size = app_size;
  if (spec.has_udp) {
    l4_size += UdpHeader::kSize;
    assert(l4_size <= 0xFFFF && "UDP length overflows 16 bits");
    spec.udp.length = static_cast<std::uint16_t>(l4_size);
  } else if (spec.has_tcp) {
    l4_size += TcpHeader::kSize;
  } else if (spec.has_esp) {
    l4_size += EspHeader::kSize;
  }

  if (spec.has_ipv4) {
    assert(Ipv4Header::kSize + l4_size <= 0xFFFF &&
           "IPv4 total length overflows 16 bits");
    spec.ipv4.total_length =
        static_cast<std::uint16_t>(Ipv4Header::kSize + l4_size);
    if (spec.has_udp) {
      spec.ipv4.protocol = kIpProtoUdp;
    } else if (spec.has_tcp) {
      spec.ipv4.protocol = kIpProtoTcp;
    } else if (spec.has_esp) {
      spec.ipv4.protocol = kIpProtoEsp;
    }
  }

  out.clear();
  out.reserve(EthernetHeader::kSize + Ipv4Header::kSize + l4_size);
  ByteWriter w(out);
  spec.eth.serialize(w);
  if (spec.has_ipv4) spec.ipv4.serialize(w);
  if (spec.has_udp) spec.udp.serialize(w);
  if (spec.has_tcp) spec.tcp.serialize(w);
  if (spec.has_esp) spec.esp.serialize(w);
  if (spec.has_kvs) spec.kvs.serialize(w);
  w.bytes(spec.payload);

  if (out.size() < min_size) out.resize(min_size, 0);
}

std::vector<std::uint8_t> replace_l4_payload(
    std::span<const std::uint8_t> frame, const ParsedFrame& parsed,
    std::span<const std::uint8_t> new_payload) {
  // Copy everything up to the old payload, then the new payload.
  std::vector<std::uint8_t> out(frame.begin(),
                                frame.begin() + static_cast<std::ptrdiff_t>(
                                                    parsed.payload_offset));
  out.insert(out.end(), new_payload.begin(), new_payload.end());

  const std::ptrdiff_t delta = static_cast<std::ptrdiff_t>(new_payload.size()) -
                               static_cast<std::ptrdiff_t>(parsed.payload_size);
  if (parsed.ipv4.has_value()) {
    Ipv4Header ip = *parsed.ipv4;
    ip.total_length =
        static_cast<std::uint16_t>(static_cast<std::ptrdiff_t>(ip.total_length) + delta);
    // Re-serialize the IPv4 header in place (offset 14 after Ethernet).
    std::vector<std::uint8_t> hdr;
    ByteWriter w(hdr);
    ip.serialize(w);
    std::copy(hdr.begin(), hdr.end(),
              out.begin() + EthernetHeader::kSize);
  }
  if (parsed.udp.has_value()) {
    const std::size_t udp_off = EthernetHeader::kSize + Ipv4Header::kSize;
    const auto new_len = static_cast<std::uint16_t>(
        static_cast<std::ptrdiff_t>(parsed.udp->length) + delta);
    out[udp_off + 4] = static_cast<std::uint8_t>(new_len >> 8);
    out[udp_off + 5] = static_cast<std::uint8_t>(new_len);
  }
  if (out.size() < 64) out.resize(64, 0);  // Ethernet minimum
  return out;
}

namespace frames {

namespace {
constexpr MacAddr kSrcMac{{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}};
constexpr MacAddr kDstMac{{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}};
}  // namespace

std::vector<std::uint8_t> min_udp(Ipv4Addr src, Ipv4Addr dst,
                                  std::uint16_t src_port,
                                  std::uint16_t dst_port) {
  return FrameBuilder()
      .eth(kSrcMac, kDstMac)
      .ipv4(src, dst)
      .udp(src_port, dst_port)
      .build();
}

std::vector<std::uint8_t> kvs_get(Ipv4Addr src, Ipv4Addr dst,
                                  std::uint16_t tenant, std::uint64_t key,
                                  std::uint32_t request_id) {
  KvsHeader h;
  h.op = KvsOp::kGet;
  h.tenant = tenant;
  h.key = key;
  h.request_id = request_id;
  return FrameBuilder()
      .eth(kSrcMac, kDstMac)
      .ipv4(src, dst)
      .udp(40000, kKvsUdpPort)
      .kvs(h)
      .build();
}

std::vector<std::uint8_t> kvs_set(Ipv4Addr src, Ipv4Addr dst,
                                  std::uint16_t tenant, std::uint64_t key,
                                  std::uint32_t request_id,
                                  std::size_t value_size) {
  KvsHeader h;
  h.op = KvsOp::kSet;
  h.tenant = tenant;
  h.key = key;
  h.value_length = static_cast<std::uint32_t>(value_size);
  h.request_id = request_id;
  return FrameBuilder()
      .eth(kSrcMac, kDstMac)
      .ipv4(src, dst)
      .udp(40000, kKvsUdpPort)
      .kvs(h)
      .payload_size(value_size)
      .build();
}

std::vector<std::uint8_t> kvs_get_reply(Ipv4Addr src, Ipv4Addr dst,
                                        std::uint16_t tenant,
                                        std::uint64_t key,
                                        std::uint32_t request_id,
                                        std::span<const std::uint8_t> value) {
  KvsHeader h;
  h.op = KvsOp::kGetReply;
  h.tenant = tenant;
  h.key = key;
  h.value_length = static_cast<std::uint32_t>(value.size());
  h.request_id = request_id;
  return FrameBuilder()
      .eth(kDstMac, kSrcMac)
      .ipv4(src, dst)
      .udp(kKvsUdpPort, 40000)
      .kvs(h)
      .payload(value)
      .build();
}

}  // namespace frames

}  // namespace panic
