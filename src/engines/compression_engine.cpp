#include "engines/compression_engine.h"

#include "net/packet.h"
#include "telemetry/telemetry.h"

namespace panic::engines {
namespace {
constexpr std::uint8_t kMarkerCompressed = 0xC7;
}

CompressionEngine::CompressionEngine(std::string name,
                                     noc::NetworkInterface* ni,
                                     const EngineConfig& config,
                                     const CompressionConfig& compression)
    : Engine(std::move(name), ni, config), compression_(compression) {}

Cycles CompressionEngine::service_time(const Message& msg) const {
  return offload_cycles(compression_.setup_cycles, compression_.cycles_per_byte,
                        msg.data.size());
}

bool CompressionEngine::transform_payload(Message& msg) {
  auto transform = [&](std::span<const std::uint8_t> in)
      -> std::optional<std::vector<std::uint8_t>> {
    if (compression_.mode == CompressionMode::kCompress) {
      auto packed = lz77_compress(in);
      packed.insert(packed.begin(), kMarkerCompressed);
      return packed;
    }
    if (in.empty() || in[0] != kMarkerCompressed) return std::nullopt;
    return lz77_decompress(in.subspan(1));
  };

  if (msg.kind == MessageKind::kPacket) {
    const auto parsed = parse_frame(msg.data);
    if (!parsed.has_value() || parsed->payload_size == 0) return false;
    const auto payload = parsed->payload(msg.data);
    const auto replaced = transform(payload);
    if (!replaced.has_value()) return false;
    bytes_in_ += payload.size();
    bytes_out_ += replaced->size();
    msg.data = replace_l4_payload(msg.data, *parsed, *replaced);
    msg.meta_valid = false;
    return true;
  }

  const auto replaced = transform(msg.data);
  if (!replaced.has_value()) return false;
  bytes_in_ += msg.data.size();
  bytes_out_ += replaced->size();
  msg.data = *replaced;
  return true;
}

bool CompressionEngine::process(Message& msg, Cycle now) {
  (void)now;
  if (transform_payload(msg)) {
    ++ok_;
  } else {
    ++failed_;  // pass the message through unchanged
  }
  return true;
}

void CompressionEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "processed_ok", &ok_);
  m.expose_counter(metric_prefix() + "failed", &failed_);
  m.expose_counter(metric_prefix() + "bytes_in", &bytes_in_);
  m.expose_counter(metric_prefix() + "bytes_out", &bytes_out_);
}

}  // namespace panic::engines
