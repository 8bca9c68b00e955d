#include "engines/tso_engine.h"

#include "net/packet.h"
#include "telemetry/telemetry.h"

namespace panic::engines {

constexpr std::uint32_t kMss = 1460;  ///< max TCP payload per segment

TsoEngine::TsoEngine(std::string name, noc::NetworkInterface* ni,
                     const EngineConfig& config, const TsoConfig& tso)
    : Engine(std::move(name), ni, config), tso_(tso) {}

std::vector<std::vector<std::uint8_t>> TsoEngine::segment_frame(
    std::span<const std::uint8_t> frame, std::uint32_t mss) {
  const auto parsed = parse_frame(frame);
  if (!parsed.has_value() || !parsed->tcp.has_value() ||
      !parsed->ipv4.has_value()) {
    return {};
  }
  const auto payload = parsed->payload(frame);
  if (payload.size() <= mss) return {};

  std::vector<std::vector<std::uint8_t>> segments;
  const std::uint8_t original_flags = parsed->tcp->flags;
  std::size_t offset = 0;
  std::uint16_t ip_id = parsed->ipv4->identification;
  while (offset < payload.size()) {
    const std::size_t take = std::min<std::size_t>(mss, payload.size() - offset);
    const bool last = offset + take >= payload.size();

    Ipv4Header ip = *parsed->ipv4;
    ip.identification = ip_id++;
    ip.total_length = static_cast<std::uint16_t>(
        Ipv4Header::kSize + TcpHeader::kSize + take);

    TcpHeader tcp = *parsed->tcp;
    tcp.seq = parsed->tcp->seq + static_cast<std::uint32_t>(offset);
    // PSH/FIN only on the final segment; SYN/RST would never be here on a
    // payload-bearing jumbo frame, but mask them off defensively too.
    tcp.flags = last ? original_flags
                     : static_cast<std::uint8_t>(
                           original_flags &
                           ~(TcpHeader::kPsh | TcpHeader::kFin));
    tcp.checksum = 0;  // filled by the checksum engine downstream

    std::vector<std::uint8_t> segment;
    segment.reserve(EthernetHeader::kSize + ip.total_length);
    ByteWriter w(segment);
    parsed->eth.serialize(w);
    ip.serialize(w);
    tcp.serialize(w);
    w.bytes(payload.subspan(offset, take));
    if (segment.size() < 64) segment.resize(64, 0);
    segments.push_back(std::move(segment));
    offset += take;
  }
  return segments;
}

Cycles TsoEngine::service_time(const Message& msg) const {
  return offload_cycles(tso_.setup_cycles, tso_.cycles_per_byte,
                        msg.data.size());
}

bool TsoEngine::process(Message& msg, Cycle now) {
  if (msg.kind != MessageKind::kPacket) return true;
  auto segments = segment_frame(msg.data, kMss);
  if (segments.empty()) {
    ++passthrough_;
    return true;  // small or non-TCP: continue unchanged
  }
  ++segmented_;

  // Consume the hop naming this engine, then clone the remaining chain
  // onto every segment.
  if (const auto hop = msg.chain.current();
      hop.has_value() && hop->engine == id()) {
    msg.chain.advance();
  }
  const auto next = lookup_table().route(msg);
  for (auto& bytes : segments) {
    auto segment = make_message(MessageKind::kPacket);
    segment->data = std::move(bytes);
    segment->chain = msg.chain;
    segment->slack = msg.slack;
    segment->tenant = msg.tenant;
    segment->from_host = msg.from_host;
    segment->egress_port = msg.egress_port;
    segment->ingress_port = msg.ingress_port;
    segment->created_at = msg.created_at;
    segment->nic_ingress_at = msg.nic_ingress_at;
    ++segments_;
    if (next.has_value() && *next != id()) {
      emit(std::move(segment), *next, now);
    }
  }
  return false;  // the jumbo frame is consumed
}

void TsoEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  m.expose_counter(metric_prefix() + "frames_segmented", &segmented_);
  m.expose_counter(metric_prefix() + "segments_emitted", &segments_);
  m.expose_counter(metric_prefix() + "passed_through", &passthrough_);
}

}  // namespace panic::engines
