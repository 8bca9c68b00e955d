// The multi-tenant key-value-store workload of §2.2/§3.2: geodistributed
// clients issuing GETs and SETs with Zipf-skewed key popularity, some of
// them arriving encrypted over the WAN.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "net/addr.h"
#include "workload/traffic_gen.h"

namespace panic::workload {

struct KvsWorkloadConfig {
  Ipv4Addr client = Ipv4Addr(10, 1, 0, 2);
  Ipv4Addr server = Ipv4Addr(10, 0, 0, 1);
  std::uint16_t tenant = 1;
  std::uint64_t num_keys = 1000;
  double zipf_skew = 0.99;
  double get_fraction = 0.95;      ///< remainder are SETs
  std::size_t value_size = 128;
  /// Fraction of requests arriving ESP-encrypted from the WAN.
  double wan_fraction = 0.0;
};

/// Frame factory producing the configured GET/SET/WAN mix.  Request ids
/// are the sequence numbers, so replies can be correlated.
FrameFactory make_kvs_factory(const KvsWorkloadConfig& config);

/// The same mix as a filler: each frame make_kvs_factory builds is
/// assigned into the recycled message buffer.
FrameFiller make_kvs_filler(const KvsWorkloadConfig& config);

/// Frame factory producing plain UDP frames of `frame_bytes` (background /
/// bulk traffic).  `flows` is the number of distinct 5-tuples the source
/// cycles through (UDP source port `40000 + seq % flows`) — the knob that
/// sets the traffic's flow locality, e.g. for RMT flow-cache working-set
/// studies.
FrameFactory make_udp_factory(Ipv4Addr src, Ipv4Addr dst,
                              std::size_t frame_bytes,
                              std::uint16_t dst_port = 9,
                              std::uint32_t flows = 1024);

/// Frame factory producing minimum-size frames (Table 2 stress).
FrameFactory make_min_frame_factory(Ipv4Addr src, Ipv4Addr dst,
                                    std::uint32_t flows = 1024);

/// Zero-allocation counterparts of the UDP factories: the frame bytes are
/// written into the recycled message buffer in place.  The filler keeps
/// one prototype frame and writes each frame's UDP source port (the only
/// seq-dependent field, `40000 + seq % flows`) into the copy, so every
/// frame is a memcpy into reused capacity.  Byte-identical to the
/// factory's output for every seq.
FrameFiller make_udp_filler(Ipv4Addr src, Ipv4Addr dst,
                            std::size_t frame_bytes,
                            std::uint16_t dst_port = 9,
                            std::uint32_t flows = 1024);

/// Zero-allocation counterpart of make_min_frame_factory.
FrameFiller make_min_frame_filler(Ipv4Addr src, Ipv4Addr dst,
                                  std::uint32_t flows = 1024);

}  // namespace panic::workload
