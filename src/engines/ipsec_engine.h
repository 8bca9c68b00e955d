// IPSec offload engine: real ESP encapsulation with ChaCha20 encryption
// and an integrity tag.  This is the paper's canonical example of an
// offload that cannot live in an RMT pipeline (§2.3.3) and whose chain
// cannot be fully precomputed (§3.1.2: encrypted messages need a second
// RMT pass after decryption).
//
// Encapsulation format (synthetic but complete):
//   outer = Eth | IPv4(proto=ESP) | ESP(spi, seq) | ct | tag64
//   ct    = ChaCha20(inner-IPv4-packet-bytes), keyed per SPI
//
// Decrypt: verify the tag, strip the outer headers, rebuild the clear
// frame, and send it back through the heavyweight RMT pipeline (the
// engine's default route), producing the 2-pass behaviour measured in E6.
#pragma once

#include <array>
#include <unordered_map>

#include "engines/chacha20.h"
#include "engines/engine.h"
#include "net/headers.h"

namespace panic::engines {

enum class IpsecMode { kDecrypt, kEncrypt };

struct IpsecConfig {
  IpsecMode mode = IpsecMode::kDecrypt;
  Cycles setup_cycles = 24;       ///< per-packet key schedule / SA lookup
  double cycles_per_byte = 0.25;  ///< 4 B/cycle crypto datapath
};

class IpsecEngine : public Engine {
 public:
  static constexpr std::size_t kTagBytes = 8;
  /// What encapsulate() adds to the inner packet's IPv4 total length: the
  /// outer IPv4 and ESP headers and the tag.
  static constexpr std::size_t kTunnelOverhead =
      Ipv4Header::kSize + EspHeader::kSize + kTagBytes;

  IpsecEngine(std::string name, noc::NetworkInterface* ni,
              const EngineConfig& config, const IpsecConfig& ipsec);

  std::uint64_t decrypted() const { return decrypted_; }
  std::uint64_t encrypted() const { return encrypted_; }
  std::uint64_t auth_failures() const { return auth_failures_; }

  void register_telemetry(telemetry::Telemetry& t) override;

  /// Builds the key for an SPI (deterministic; shared by both endpoints).
  static std::array<std::uint8_t, ChaCha20::kKeyBytes> key_for_spi(
      std::uint32_t spi);

  /// Encrypts `inner_frame` into a full ESP frame (static helper used by
  /// workload generators to fabricate WAN traffic).
  static std::vector<std::uint8_t> encapsulate(
      std::span<const std::uint8_t> inner_frame, std::uint32_t spi,
      std::uint32_t seq);

  /// Decrypts an ESP frame; returns the inner frame or nullopt on auth
  /// failure / malformed input.
  static std::optional<std::vector<std::uint8_t>> decapsulate(
      std::span<const std::uint8_t> esp_frame);

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  IpsecConfig ipsec_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t decrypted_ = 0;
  std::uint64_t encrypted_ = 0;
  std::uint64_t auth_failures_ = 0;
};

}  // namespace panic::engines
