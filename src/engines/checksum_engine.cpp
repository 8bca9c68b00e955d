#include "engines/checksum_engine.h"

#include "net/checksum.h"
#include "net/packet.h"
#include "telemetry/telemetry.h"

namespace panic::engines {
namespace {

/// Sums the IPv4 pseudo-header + L4 segment; returns the offset of the
/// checksum field, or 0 if the frame has no UDP/TCP.
std::size_t l4_checksum_offset(const ParsedFrame& parsed) {
  constexpr std::size_t l4_off = EthernetHeader::kSize + Ipv4Header::kSize;
  if (parsed.udp.has_value()) return l4_off + 6;
  if (parsed.tcp.has_value()) return l4_off + 16;
  return 0;
}

std::uint16_t compute_l4_checksum(std::span<const std::uint8_t> frame,
                                  const ParsedFrame& parsed) {
  const std::size_t l4_off = EthernetHeader::kSize + Ipv4Header::kSize;
  const std::size_t l4_len = parsed.ipv4->total_length - Ipv4Header::kSize;

  std::uint8_t pseudo[12];
  const std::uint32_t src = parsed.ipv4->src.value();
  const std::uint32_t dst = parsed.ipv4->dst.value();
  pseudo[0] = static_cast<std::uint8_t>(src >> 24);
  pseudo[1] = static_cast<std::uint8_t>(src >> 16);
  pseudo[2] = static_cast<std::uint8_t>(src >> 8);
  pseudo[3] = static_cast<std::uint8_t>(src);
  pseudo[4] = static_cast<std::uint8_t>(dst >> 24);
  pseudo[5] = static_cast<std::uint8_t>(dst >> 16);
  pseudo[6] = static_cast<std::uint8_t>(dst >> 8);
  pseudo[7] = static_cast<std::uint8_t>(dst);
  pseudo[8] = 0;
  pseudo[9] = parsed.ipv4->protocol;
  pseudo[10] = static_cast<std::uint8_t>(l4_len >> 8);
  pseudo[11] = static_cast<std::uint8_t>(l4_len);

  std::uint32_t sum = internet_checksum_partial({pseudo, 12}, 0);
  sum = internet_checksum_partial(frame.subspan(l4_off, l4_len), sum);
  std::uint16_t result = internet_checksum_finish(sum);
  // An all-zero UDP checksum means "not computed"; RFC 768 substitutes
  // 0xFFFF.
  if (result == 0 && parsed.udp.has_value()) result = 0xFFFF;
  return result;
}

}  // namespace

ChecksumEngine::ChecksumEngine(std::string name, noc::NetworkInterface* ni,
                               const EngineConfig& config,
                               const ChecksumConfig& checksum)
    : Engine(std::move(name), ni, config), checksum_(checksum) {}

bool ChecksumEngine::fill_l4_checksum(std::vector<std::uint8_t>& frame) {
  // Parse without trusting the (about to be rewritten) checksum field.
  auto parsed = parse_frame(frame);
  if (!parsed.has_value() || !parsed->ipv4.has_value()) return false;
  const std::size_t off = l4_checksum_offset(*parsed);
  if (off == 0) return false;
  // Zero the field before summing.
  frame[off] = 0;
  frame[off + 1] = 0;
  const std::uint16_t sum = compute_l4_checksum(frame, *parsed);
  frame[off] = static_cast<std::uint8_t>(sum >> 8);
  frame[off + 1] = static_cast<std::uint8_t>(sum);
  return true;
}

bool ChecksumEngine::verify_l4_checksum(
    std::span<const std::uint8_t> frame) {
  const auto parsed = parse_frame(frame);
  if (!parsed.has_value() || !parsed->ipv4.has_value()) return false;
  const std::size_t off = l4_checksum_offset(*parsed);
  if (off == 0) return false;
  const std::uint16_t stored =
      static_cast<std::uint16_t>((frame[off] << 8) | frame[off + 1]);
  if (stored == 0 && parsed->udp.has_value()) return true;  // not computed
  std::vector<std::uint8_t> copy(frame.begin(), frame.end());
  copy[off] = 0;
  copy[off + 1] = 0;
  auto reparsed = parse_frame(copy);
  return compute_l4_checksum(copy, *reparsed) == stored;
}

Cycles ChecksumEngine::service_time(const Message& msg) const {
  return offload_cycles(checksum_.setup_cycles, checksum_.cycles_per_byte,
                        msg.data.size());
}

bool ChecksumEngine::process(Message& msg, Cycle now) {
  (void)now;
  if (msg.kind == MessageKind::kPacket && fill_l4_checksum(msg.data)) {
    ++done_;
  } else {
    ++skipped_;
  }
  return true;
}

void ChecksumEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "checksummed", &done_);
  m.expose_counter(metric_prefix() + "skipped", &skipped_);
}

}  // namespace panic::engines
