// The RX front door every NIC model shares.  PANIC's Ethernet ports and
// the three baselines of §2.3 (pipeline, manycore, RMT-only) all take
// received frames through it, so one workload::TrafficSource — or one
// hand-placed deliver_frame() — feeds any of them the same frames.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "net/message.h"

namespace panic {

class RxPort {
 public:
  RxPort() = default;
  RxPort(const RxPort&) = delete;
  RxPort& operator=(const RxPort&) = delete;
  virtual ~RxPort() = default;

  /// Takes one frame off the wire: `msg->data` holds its bytes.  The port
  /// stamps it as `tenant`'s packet, created and entering the NIC at
  /// `now`, then admits it or refuses it (fate kDropped).
  virtual void deliver_rx(MessagePtr msg, Cycle now, TenantId tenant) = 0;
};

/// Delivers `frame` into `port` at `now` in a pooled message.
inline void deliver_frame(RxPort& port, std::vector<std::uint8_t> frame,
                          Cycle now, TenantId tenant = {}) {
  MessagePtr msg = make_message(MessageKind::kPacket);
  msg->data = std::move(frame);
  port.deliver_rx(std::move(msg), now, tenant);
}

}  // namespace panic
