#include "net/device.h"

#include <bit>
#include <utility>

#include "net/network.h"
#include "util/check.h"
#include "util/logging.h"

namespace dcpim::net {

namespace {

/// Disjoint per-port seed for the fault RNG stream: a SplitMix64-style mix
/// of the network seed with the (device, port) coordinates. Distinct ports
/// get unrelated streams, and none of them is the workload RNG stream.
std::uint64_t fault_stream_seed(std::uint64_t net_seed, int device_id,
                                int port_index) {
  std::uint64_t z =
      net_seed ^ (0x9E3779B97F4A7C15ull +
                  (static_cast<std::uint64_t>(device_id + 1) << 17) +
                  static_cast<std::uint64_t>(port_index + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Typed-event kinds of a Port (Port::on_event).
constexpr unsigned kSerialized = 0;
constexpr unsigned kArrived = 1;

// A port's arrival delay adds one of these to the link's (positive)
// propagation, so an arrival never lands at its serialization end.
static_assert(kSwitchLatency >= Time{} && kHostLatency >= Time{},
              "ingress latency cannot be negative");

}  // namespace

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kBufferOverflow: return "buffer-overflow";
    case DropReason::kAeolus: return "aeolus";
    case DropReason::kLinkDown: return "link-down";
    case DropReason::kInjectedLoss: return "injected-loss";
    case DropReason::kTargetedFault: return "targeted-fault";
    case DropReason::kGrayLoss: return "gray-loss";
  }
  return "?";
}

Port::Port(Device& owner, int index, PortConfig cfg)
    : net_(owner.network()),
      owner_(owner),
      cfg_(cfg),
      byte_time_(exact_byte_time(cfg.rate)),
      index_(index),
      fault_rng_(fault_stream_seed(owner.network().config().seed,
                                   owner.device_id(), index)) {
  DCPIM_CHECK_GT(cfg_.propagation, Time{}, "link propagation must be positive");
  net_.sim().register_target(*this);
}

void Port::connect(Device* peer, Port* reverse) {
  peer_ = peer;
  reverse_ = reverse;
  reverse_pfc_ = reverse != nullptr && reverse->config().pfc_enable;
  arrival_delay_ = cfg_.propagation + (peer->kind() == Device::Kind::Switch
                                           ? kSwitchLatency
                                           : kHostLatency);
}

void Port::set_rate(BitsPerSec rate) {
  cfg_.rate = rate;
  byte_time_ = exact_byte_time(rate);
}

Time Port::tx_time(Bytes bytes) const {
  return byte_time_ > Time{} ? byte_time_ * (bytes / Bytes{1})
                             : serialization_time(bytes, cfg_.rate);
}

void Port::drop_packet(PacketPtr p, DropReason reason) {
  ++drops;
  if (is_injected_drop(reason)) ++injected_drops;
  // Release any switch-side ingress accounting (PFC): a dropped packet
  // never reaches try_transmit's departure hook, and leaking its bytes
  // would leave the upstream port paused forever.
  owner_.on_packet_departed(*p);
  net_.notify_drop(*p, *this, reason);
}

// sa-hot: runs once per packet per hop — the single hottest path in the
// simulator (dcpim_sa enforces no transitive allocation from here).
void Port::enqueue(PacketPtr p) {
  DCPIM_CHECK(peer_ != nullptr, "port not connected");
  if (!link_up_) {
    drop_packet(std::move(p), DropReason::kLinkDown);
    return;
  }
  if (net_.has_fault_filter() && net_.fault_filter_drop(*p, *this)) {
    drop_packet(std::move(p), DropReason::kTargetedFault);
    return;
  }
  // Loss draws consume the per-port fault RNG stream, never the shared
  // workload RNG: enabling loss on one port must not perturb arrival
  // sequences anywhere else (sweep determinism, DESIGN.md §11).
  if (cfg_.loss_rate > 0.0 && fault_rng_.bernoulli(cfg_.loss_rate)) {
    drop_packet(std::move(p), DropReason::kInjectedLoss);
    return;
  }
  // Gray failure: same fault-RNG isolation, but attributed separately —
  // the link reports up, nothing pauses, the packet just vanishes.
  if (cfg_.gray_loss_rate > 0.0 && fault_rng_.bernoulli(cfg_.gray_loss_rate)) {
    drop_packet(std::move(p), DropReason::kGrayLoss);
    return;
  }

  int prio = p->priority;
  if (!p->control && !p->trimmed) {
    // Data-plane packet: subject to the shared data buffer and features.
    const Bytes data_queued = total_qbytes_ - qbytes_[0];

    if (cfg_.aeolus_threshold >= Bytes{} && p->unscheduled &&
        data_queued + p->size > cfg_.aeolus_threshold) {
      // Aeolus selective dropping: first-RTT (unscheduled) packets are
      // dropped early so scheduled traffic keeps the buffer.
      drop_packet(std::move(p), DropReason::kAeolus);
      return;
    }

    const bool over_trim_cap =
        cfg_.trim_enable && qbytes_[prio] + p->size > cfg_.trim_queue_cap;
    const bool over_buffer =
        cfg_.buffer_bytes >= Bytes{} && data_queued + p->size > cfg_.buffer_bytes;

    if (over_trim_cap || (cfg_.trim_enable && over_buffer)) {
      // NDP packet trimming: cut the payload, forward the header at the
      // control priority so the receiver learns of the loss immediately.
      ++trims;
      p->size = kTrimHeaderSize;
      p->payload = Bytes{};
      p->trimmed = true;
      p->priority = 0;
      prio = 0;
    } else if (over_buffer) {
      drop_packet(std::move(p), DropReason::kBufferOverflow);
      return;
    } else if (cfg_.ecn_threshold >= Bytes{} && data_queued >= cfg_.ecn_threshold) {
      p->ecn_ce = true;
      ++ecn_marks;
    }
  } else {
    // Control-plane (or already-trimmed) packet: strict priority 0 with its
    // own byte budget, so data congestion cannot starve the control plane.
    if (cfg_.buffer_bytes >= Bytes{} && qbytes_[0] + p->size > cfg_.buffer_bytes) {
      drop_packet(std::move(p), DropReason::kBufferOverflow);
      return;
    }
    prio = p->priority;  // control is priority 0 by construction
  }

  qbytes_[prio] += p->size;
  total_qbytes_ += p->size;
  queues_[prio].push(std::move(p));
  nonempty_ = static_cast<std::uint8_t>(nonempty_ | 1u << prio);
  try_transmit();
}

void Port::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  if (!paused_) try_transmit();
}

void Port::set_link_up(bool up) {
  if (link_up_ == up) return;
  link_up_ = up;
  if (link_up_) try_transmit();
}

void Port::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (!stalled_) try_transmit();
}

int Port::next_priority_to_send() const {
  static_assert(kNumPriorities == 8, "nonempty_ has one bit per priority");
  if (!link_up_ || stalled_) return -1;
  // PFC pauses all but control: a paused port sees only priority 0.
  const unsigned ready = paused_ ? nonempty_ & 1u : nonempty_;
  return ready == 0 ? -1 : std::countr_zero(ready);
}

// sa-hot: per-packet dequeue/serialization path.
void Port::try_transmit() {
  if (busy_) return;
  const int prio = next_priority_to_send();
  if (prio < 0) return;

  PacketPtr p = queues_[prio].pop();
  if (queues_[prio].empty()) {
    nonempty_ = static_cast<std::uint8_t>(nonempty_ & ~(1u << prio));
  }
  qbytes_[prio] -= p->size;
  total_qbytes_ -= p->size;
  // Only a packet a switch buffered against a PFC ingress has a departure
  // to account (Switch::on_packet_departed).
  if (p->pfc_ingress >= 0) owner_.on_packet_departed(*p);

  if (p->collect_int) {
    // HPCC INT: stamp egress state at dequeue time, into the packet's
    // inline record array (no allocation).
    packet_cast<IntPacket>(*p).int_hops.add(IntHopRecord{
        .qlen = total_qbytes_,
        .tx_bytes = tx_bytes,
        .rate = cfg_.rate,
        .timestamp = net_.sim().now(),
    });
  }

  busy_ = true;
  const Time ser = tx_time(p->size);
  busy_time += ser;
  tx_packet_ = std::move(p);
  net_.sim().schedule_at(net_.sim().now() + ser, *this, kSerialized);
}

// sa-hot: the two per-hop events — serialization done, then arrival.
void Port::on_event(unsigned kind) {
  if (kind == kSerialized) {
    tx_bytes += tx_packet_->size;
    ++tx_packets;
    busy_ = false;
    const TimePoint arrival = net_.sim().now() + arrival_delay_;
    // The in-flight FIFO is exact only while arrivals keep send order: each
    // arrival event delivers the FIFO front, whichever packet it was
    // scheduled for.
    DCPIM_CHECK_GE(arrival, last_arrival_, "in-flight packets would reorder");
    last_arrival_ = arrival;
    net_.sim().schedule_at(arrival, *this, kArrived);
    inflight_.push(std::move(tx_packet_));
    try_transmit();
    return;
  }
  peer_->receive(inflight_.pop(), reverse_pfc_ ? reverse_ : nullptr);
}

Device::Device(Network& net, Kind kind, std::string name)
    : net_(net), kind_(kind), name_(std::move(name)) {}

Port* Device::add_port(const PortConfig& cfg) {
  DCPIM_CHECK_LT(ports.size(), std::size_t{1} << 15,
                 "a device's port indices must fit Packet::pfc_ingress");
  ports.push_back(
      std::make_unique<Port>(*this, static_cast<int>(ports.size()), cfg));
  on_port_added(*ports.back());
  return ports.back().get();
}

}  // namespace dcpim::net
