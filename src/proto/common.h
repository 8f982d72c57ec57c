// Control-packet shapes shared by the baseline protocols. Each protocol
// defines its own `kind` enum; these structs only carry the fields.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace dcpim::proto {

/// Flow announcement (RTS) carrying the flow size.
struct SizedNotifyPacket : net::Packet {
  Bytes flow_size{};
};

/// Receiver-driven per-packet admission (Homa grant, NDP pull).
struct GrantTokenPacket : net::Packet {
  std::uint32_t data_seq = 0;
  std::uint8_t data_priority = 2;
};

/// Cumulative/selective acknowledgement for window-based transports
/// (HPCC / DCTCP / TCP) — echoes ECN and INT telemetry back to the sender.
struct AckPacket : net::Packet {
  std::uint32_t acked_seq = 0;       ///< the data packet being acknowledged
  std::uint32_t cumulative_ack = 0;  ///< lowest seq not yet received
  bool ecn_echo = false;
  std::vector<net::IntHopRecord> int_echo;
};

}  // namespace dcpim::proto
