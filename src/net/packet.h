// Packet model shared by every protocol in the simulator.
//
// Packet is a small polymorphic base: protocols derive their control packet
// types from it and dispatch on `kind`. The base carries everything the
// network layer (ports, switches) needs — wire size, priority, and the
// per-feature flags used by ECN marking, NDP trimming, Aeolus selective
// dropping, and HPCC INT telemetry (whose records ride in IntPacket).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/time.h"
#include "util/units.h"

namespace dcpim::net {

class Port;

/// One in-band telemetry record appended per hop (HPCC).
struct IntHopRecord {
  Bytes qlen{};         ///< egress queue occupancy at dequeue time
  Bytes tx_bytes{};     ///< cumulative bytes transmitted by the egress port
  BitsPerSec rate{};    ///< egress link rate
  TimePoint timestamp{};  ///< dequeue timestamp
};

/// A data packet is touched at every hop, so the base packet is one 64-byte
/// line: the vtable pointer, the 8-byte fields, the 4-byte fields, then the
/// one-byte flags and the 2-byte PFC tag. HPCC's telemetry lives in
/// IntPacket, not here.
struct Packet {
  // --- addressing ------------------------------------------------------
  int src = -1;  ///< source host id
  int dst = -1;  ///< destination host id
  std::uint64_t flow_id = UINT64_MAX;

  // --- wire properties ---------------------------------------------------
  Bytes size{};          ///< bytes on the wire, headers included
  Bytes payload{};       ///< application payload bytes (0 for control)

  /// Simulation time the packet was created (set by Host factories;
  /// kTimeUnset if hand-built). Used for latency accounting and debugging.
  TimePoint created_at = kTimeUnset;

  // --- data packet identity ---------------------------------------------
  std::uint32_t seq = 0;  ///< data packet index within the flow

  // --- protocol dispatch --------------------------------------------------
  /// Protocol-defined discriminator; each protocol defines its own enum.
  int kind = 0;

  std::uint8_t priority = 0;  ///< 0 = highest; strict priority at every port
  bool control = false;  ///< control-plane packet (notifications, tokens, ...)

  // --- per-feature flags (network layer) ---------------------------------
  bool unscheduled = false;  ///< sent without receiver admission (Aeolus drop)
  bool ecn_ce = false;       ///< ECN congestion-experienced mark
  bool trimmed = false;      ///< NDP: payload removed in-network
  /// Set exactly on IntPackets: ports append an INT record to int_hops.
  bool collect_int = false;

  // --- transient network-layer tags ---------------------------------------
  /// While buffered in a switch: local ingress port index (PFC accounting).
  /// Device::add_port keeps every port index below 2^15.
  std::int16_t pfc_ingress = -1;

  Packet() = default;
  virtual ~Packet() = default;
  Packet(const Packet&) = default;
  Packet& operator=(const Packet&) = default;

  /// Field-wise equality of the Packet part (derived fields are ignored).
  bool operator==(const Packet&) const = default;

  /// Returns every field to its freshly-constructed value, so a recycled
  /// packet is indistinguishable from `Packet{}`.
  void reset_transient() { *this = Packet{}; }

  /// True when every field holds its default — what reset_transient()
  /// guarantees and the packet-pool-hygiene audit probe asserts for every
  /// parked packet.
  bool is_pristine() const { return *this == Packet{}; }
};

static_assert(sizeof(Packet) == 64, "a Packet is one cache line");

/// A data packet that gathers HPCC in-band telemetry: each egress port
/// appends one record at dequeue. Only PacketPool::acquire_int() makes one
/// (through Host::make_data_packet), and it sets `collect_int`.
struct IntPacket final : Packet {
  std::vector<IntHopRecord> int_hops;

  /// Packet's reset, plus the records cleared; the vector keeps its
  /// capacity, which is the point of pooling INT-heavy runs.
  void reset_transient() {
    Packet::reset_transient();
    int_hops.clear();
  }
  bool is_pristine() const {
    return Packet::is_pristine() && int_hops.empty();
  }
};

class PacketPool;

/// Deleter carried by every PacketPtr. Pool-acquired data packets carry a
/// pointer back to their PacketPool and are parked (not destroyed) when the
/// PacketPtr dies — drop, deliver, and fault-kill paths all recycle through
/// this one funnel. Everything else (control packets, hand-built test
/// packets) carries a null pool and is deleted normally.
///
/// The converting constructor from std::default_delete<T> keeps the
/// ubiquitous `std::make_unique<SomeControlPacket>()` factory idiom working:
/// unique_ptr's converting constructor requires the source deleter to be
/// convertible to this one.
struct PacketDeleter {
  PacketPool* pool = nullptr;

  PacketDeleter() = default;
  explicit PacketDeleter(PacketPool* p) : pool(p) {}
  template <typename T>
  PacketDeleter(std::default_delete<T>) noexcept {}  // NOLINT(google-explicit-constructor)

  void operator()(Packet* p) const;  // defined in packet_pool.cpp
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Convenience downcast after checking `kind`. Behaviour is undefined if the
/// kind does not correspond to T (as with static_cast generally).
template <typename T>
T& packet_cast(Packet& p) {
  return static_cast<T&>(p);
}

template <typename T>
const T& packet_cast(const Packet& p) {
  return static_cast<const T&>(p);
}

}  // namespace dcpim::net
