// Free-list recycler for data packets (DESIGN.md §13).
//
// Every data packet in a run has one of two shapes — the exact type
// `Packet`, or `IntPacket` when the sender is HPCC — built by
// Host::make_data_packet and destroyed a handful of events later at a drop
// or delivery site. Heap-allocating each one makes the allocator the
// hottest call in the simulator; this pool replaces that churn with a
// push/pop on a vector of parked packets, one vector per shape.
//
// Contract (enforced by the sa-lifetime analyzer, the packet-pool-hygiene
// audit probe, and the fingerprint-identity regression test):
//
//   * Only acquire() and acquire_int() create pool-owned packets, and they
//     only ever create exact-type `Packet` and `IntPacket` respectively —
//     derived control packets never enter a free list, and release() parks
//     a packet on its own type's list (an IntPacket is the packet with
//     `collect_int` set), so no parked object is re-issued as the wrong
//     type.
//   * release() resets a packet before parking it, so an acquired packet
//     is bit-for-bit a fresh `Packet{}` (an IntPacket keeps only its
//     int_hops capacity). Pooling is therefore behaviour-invariant:
//     test_packet_pool checks result fingerprints pool-on vs pool-off.
//   * Recycling is automatic: PacketDeleter routes dying PacketPtrs here,
//     covering delivery, buffer drops, Aeolus drops, and FaultInjector
//     kills without any per-site wiring.
//   * The pool must outlive every PacketPtr that references it. Network
//     declares its pool before the Simulator and the device tree, so member
//     destruction order drains queued events and port queues into the pool
//     before the pool itself dies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace dcpim::net {

class PacketPool {
 public:
  PacketPool() = default;
  explicit PacketPool(bool enabled) : enabled_(enabled) {}
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A fresh data packet: recycled from the free list when possible,
  /// heap-allocated otherwise. With the pool disabled this degrades to a
  /// plain allocation whose deleter bypasses the pool entirely (the A/B arm
  /// of the fingerprint-identity test).
  PacketPtr acquire();
  /// The same for an IntPacket, handed out with `collect_int` set.
  PacketPtr acquire_int();

  /// Parks `p` on its type's free list after wiping it back to its
  /// default-constructed state. Called by PacketDeleter only — sites never
  /// release directly.
  void release(Packet* p);

  bool enabled() const { return enabled_; }
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t released() const { return released_; }
  /// Acquisitions served from the free list rather than the heap — the
  /// allocations the pool saved.
  std::uint64_t recycled() const { return recycled_; }
  /// Pool-owned packets currently out in the network: in flight through
  /// port queues, scheduled events, or protocol hands.
  std::uint64_t outstanding() const { return acquired_ - released_; }
  std::size_t parked() const { return free_[0].size() + free_[1].size(); }

  /// Audit hook: every parked packet must look freshly constructed. Returns
  /// the number of parked packets violating is_pristine().
  std::size_t parked_dirty_count() const;

 private:
  template <typename T>
  PacketPtr acquire_as();

  bool enabled_ = true;
  std::uint64_t acquired_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t recycled_ = 0;
  // sa-ok(lifetime): the pool IS the owner the escape analysis protects —
  // parked packets are reachable only from these free lists until an
  // acquire re-issues them, and ~PacketPool deletes whatever remains.
  // Indexed by `collect_int`: Packets in free_[0], IntPackets in free_[1].
  std::array<std::vector<Packet*>, 2> free_;
};

}  // namespace dcpim::net
