#include "net/packet_pool.h"

#include <type_traits>

#include "util/check.h"

namespace dcpim::net {

void PacketDeleter::operator()(Packet* p) const {
  if (pool != nullptr) {
    pool->release(p);
  } else {
    delete p;
  }
}

PacketPool::~PacketPool() {
  for (const auto& parked : free_) {
    for (Packet* p : parked) delete p;
  }
}

// Pops a parked packet of type T or allocates one; the shared body of
// acquire() and acquire_int().
template <typename T>
PacketPtr PacketPool::acquire_as() {
  if (!enabled_) {
    // Disabled arm: identical packets, plain-delete lifetime, zero pool
    // accounting — outstanding() stays 0 so the hygiene probe is inert.
    return PacketPtr(new T(), PacketDeleter());
  }
  ++acquired_;
  std::vector<Packet*>& parked = free_[std::is_same_v<T, IntPacket>];
  if (!parked.empty()) {
    ++recycled_;
    Packet* p = parked.back();
    parked.pop_back();
    return PacketPtr(p, PacketDeleter(this));
  }
  return PacketPtr(new T(), PacketDeleter(this));
}

PacketPtr PacketPool::acquire() { return acquire_as<Packet>(); }

PacketPtr PacketPool::acquire_int() {
  PacketPtr p = acquire_as<IntPacket>();
  p->collect_int = true;
  return p;
}

void PacketPool::release(Packet* p) {
  DCPIM_DCHECK(p != nullptr, "released a null packet");
  DCPIM_DCHECK(p->collect_int == (dynamic_cast<IntPacket*>(p) != nullptr),
               "collect_int must be set exactly on IntPackets");
  ++released_;
  const bool is_int = p->collect_int;
  if (is_int) {
    static_cast<IntPacket*>(p)->reset_transient();
  } else {
    p->reset_transient();
  }
  free_[is_int].push_back(p);
}

std::size_t PacketPool::parked_dirty_count() const {
  std::size_t dirty = 0;
  for (const Packet* p : free_[0]) {
    if (!p->is_pristine()) ++dirty;
  }
  for (const Packet* p : free_[1]) {
    if (!static_cast<const IntPacket*>(p)->is_pristine()) ++dirty;
  }
  return dirty;
}

}  // namespace dcpim::net
