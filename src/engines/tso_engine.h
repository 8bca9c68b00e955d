// TCP segmentation offload engine (the "TCP 1/2" tiles of Figure 3c;
// §2.1 lists TCP offload engines among the classic infrastructure
// offloads).
//
// The host posts one jumbo TCP frame; this engine slices its payload into
// MSS-sized segments, each with correctly advanced sequence numbers,
// per-segment IPv4 total_length/identification, and PSH/FIN flags only on
// the final segment.  Every segment inherits the remainder of the
// original message's chain (typically [checksum, egress port]), so
// segments flow through the same offloads the packet would have.
#pragma once

#include "engines/engine.h"

namespace panic::engines {

struct TsoConfig {
  Cycles setup_cycles = 16;
  double cycles_per_byte = 0.0625;  ///< 16 B/cycle DMA-style copy engine
};

class TsoEngine : public Engine {
 public:
  TsoEngine(std::string name, noc::NetworkInterface* ni,
            const EngineConfig& config, const TsoConfig& tso);

  std::uint64_t frames_segmented() const { return segmented_; }
  std::uint64_t segments_emitted() const { return segments_; }
  std::uint64_t passed_through() const { return passthrough_; }

  void register_telemetry(telemetry::Telemetry& t) override;

  /// Pure segmentation logic (exposed for tests): splits `frame` into
  /// MSS-sized TCP segments.  Returns an empty vector if the frame is not
  /// TCP or already fits one segment.
  static std::vector<std::vector<std::uint8_t>> segment_frame(
      std::span<const std::uint8_t> frame, std::uint32_t mss);

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  TsoConfig tso_;
  std::uint64_t segmented_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t passthrough_ = 0;
};

}  // namespace panic::engines
