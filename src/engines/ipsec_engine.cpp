#include "engines/ipsec_engine.h"

#include "common/log.h"
#include "net/packet.h"
#include "telemetry/telemetry.h"

namespace panic::engines {
namespace {

std::array<std::uint8_t, ChaCha20::kNonceBytes> nonce_for(std::uint32_t spi,
                                                          std::uint32_t seq) {
  std::array<std::uint8_t, ChaCha20::kNonceBytes> nonce{};
  nonce[0] = static_cast<std::uint8_t>(spi >> 24);
  nonce[1] = static_cast<std::uint8_t>(spi >> 16);
  nonce[2] = static_cast<std::uint8_t>(spi >> 8);
  nonce[3] = static_cast<std::uint8_t>(spi);
  nonce[4] = static_cast<std::uint8_t>(seq >> 24);
  nonce[5] = static_cast<std::uint8_t>(seq >> 16);
  nonce[6] = static_cast<std::uint8_t>(seq >> 8);
  nonce[7] = static_cast<std::uint8_t>(seq);
  return nonce;
}

/// The security association the encrypt path seals every frame under.
constexpr std::uint32_t kEncryptSpi = 0x1001;

}  // namespace

IpsecEngine::IpsecEngine(std::string name, noc::NetworkInterface* ni,
                         const EngineConfig& config,
                         const IpsecConfig& ipsec)
    : Engine(std::move(name), ni, config), ipsec_(ipsec) {}

std::array<std::uint8_t, ChaCha20::kKeyBytes> IpsecEngine::key_for_spi(
    std::uint32_t spi) {
  std::array<std::uint8_t, ChaCha20::kKeyBytes> key{};
  std::uint64_t x = spi * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  for (auto& b : key) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return key;
}

std::vector<std::uint8_t> IpsecEngine::encapsulate(
    std::span<const std::uint8_t> inner_frame, std::uint32_t spi,
    std::uint32_t seq) {
  const auto inner = parse_frame(inner_frame);
  // Encrypt the inner IPv4 packet (bytes after the Ethernet header).
  const std::size_t ip_off = EthernetHeader::kSize;
  const auto inner_ip = inner_frame.subspan(
      ip_off, inner && inner->ipv4 ? inner->ipv4->total_length
                                   : inner_frame.size() - ip_off);

  const auto key = key_for_spi(spi);
  const auto nonce = nonce_for(spi, seq);
  ChaCha20 cipher(key, nonce);
  auto ct = cipher.apply(inner_ip);
  const std::uint64_t tag = auth_tag(ct, key);
  for (int i = 7; i >= 0; --i) {
    ct.push_back(static_cast<std::uint8_t>(tag >> (8 * i)));
  }

  // Outer headers: reuse the inner addresses as tunnel endpoints (a full
  // implementation would use SA tunnel addresses; irrelevant here).
  FrameBuilder fb;
  EthernetHeader eth;
  if (inner.has_value()) eth = inner->eth;
  fb.eth(eth.src, eth.dst);
  const Ipv4Addr src = inner && inner->ipv4 ? inner->ipv4->src
                                            : Ipv4Addr(192, 0, 2, 1);
  const Ipv4Addr dst = inner && inner->ipv4 ? inner->ipv4->dst
                                            : Ipv4Addr(192, 0, 2, 2);
  fb.ipv4(src, dst);
  fb.esp(spi, seq);
  fb.payload(ct);
  return fb.build();
}

std::optional<std::vector<std::uint8_t>> IpsecEngine::decapsulate(
    std::span<const std::uint8_t> esp_frame) {
  const auto parsed = parse_frame(esp_frame);
  if (!parsed.has_value() || !parsed->esp.has_value()) return std::nullopt;
  const auto payload = parsed->payload(esp_frame);
  if (payload.size() < kTagBytes) return std::nullopt;

  const auto key = key_for_spi(parsed->esp->spi);
  const auto ct = payload.first(payload.size() - kTagBytes);
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < kTagBytes; ++i) {
    tag = (tag << 8) | payload[ct.size() + i];
  }
  if (auth_tag(ct, key) != tag) return std::nullopt;

  const auto nonce = nonce_for(parsed->esp->spi, parsed->esp->seq);
  ChaCha20 cipher(key, nonce);
  const auto inner_ip = cipher.apply(ct);

  // Rebuild the clear frame: original Ethernet header + inner IP packet.
  std::vector<std::uint8_t> out(esp_frame.begin(),
                                esp_frame.begin() + EthernetHeader::kSize);
  out.insert(out.end(), inner_ip.begin(), inner_ip.end());
  if (out.size() < 64) out.resize(64, 0);
  return out;
}

Cycles IpsecEngine::service_time(const Message& msg) const {
  return offload_cycles(ipsec_.setup_cycles, ipsec_.cycles_per_byte,
                        msg.data.size());
}

bool IpsecEngine::process(Message& msg, Cycle now) {
  (void)now;
  if (msg.kind != MessageKind::kPacket) return true;

  if (ipsec_.mode == IpsecMode::kDecrypt) {
    auto inner = decapsulate(msg.data);
    if (!inner.has_value()) {
      ++auth_failures_;
      PANIC_DEBUG("ipsec", "%s: dropping frame, ESP authentication failed",
                  name().c_str());
      return false;  // drop: failed authentication
    }
    msg.data = std::move(*inner);
    msg.meta_valid = false;  // stale: must re-parse in the RMT pipeline
    ++decrypted_;
    // The rest of the chain was unknowable before decryption; the chain
    // either names the RMT pipeline next or the lookup table's default
    // route sends the message back there (§3.1.2).
    return true;
  }

  msg.data = encapsulate(msg.data, kEncryptSpi, next_seq_++);
  msg.meta_valid = false;
  ++encrypted_;
  return true;
}

void IpsecEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "decrypted", &decrypted_);
  m.expose_counter(metric_prefix() + "encrypted", &encrypted_);
  m.expose_counter(metric_prefix() + "auth_failures", &auth_failures_);
}

}  // namespace panic::engines
