// Device and Port: the queueing/transmission substrate.
//
// A Device (host or switch) owns egress Ports. Each Port models one
// direction of a link: strict-priority FIFOs with a shared byte budget,
// store-and-forward serialization at the link rate, propagation delay, and
// the optional per-port features from PortConfig (ECN, trimming, Aeolus
// selective dropping, PFC pause, random loss injection for failure tests).
//
// A packet hop is two typed simulator events on the sending Port, neither
// carrying a callback: kind 0 ends serialization, moves the packet into the
// port's in-flight FIFO and schedules its arrival; kind 1 hands the FIFO
// front to the peer. The FIFO is exact because serialization is sequential
// and a link's arrival delay (propagation plus the peer's ingress latency)
// never changes mid-run (degrade faults change the rate). Every arrival is
// queued when its serialization ends; with one fixed delay per link, the
// simulator's delay lanes hold them without a heap entry (DESIGN.md §13).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/config.h"
#include "net/packet.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/time.h"

namespace dcpim::net {

class Network;
class Device;

/// Why a port dropped a packet. Fault-injected causes (loss windows, downed
/// links, targeted drops — everything the FaultPlan layer schedules) are
/// kept distinct from protocol/buffer causes so the audit probes never
/// mistake an injected fault for a protocol bug (DESIGN.md §11).
enum class DropReason {
  kBufferOverflow,  ///< shared data / control byte budget exceeded
  kAeolus,          ///< Aeolus selective drop of unscheduled packets
  kLinkDown,        ///< port link administratively down (set_link_up)
  kInjectedLoss,    ///< Bernoulli loss window (PortConfig::loss_rate)
  kTargetedFault,   ///< FaultPlan targeted drop (Network fault filter)
  kGrayLoss,        ///< silent gray failure (PortConfig::gray_loss_rate)
};

/// True for drops caused by injected faults rather than protocol behavior.
constexpr bool is_injected_drop(DropReason reason) {
  return reason == DropReason::kLinkDown ||
         reason == DropReason::kInjectedLoss ||
         reason == DropReason::kTargetedFault ||
         reason == DropReason::kGrayLoss;
}

const char* to_string(DropReason reason);

/// Wire size of a data packet that trimming cut down to its header
/// (Port::enqueue, PortConfig::trim_enable).
inline constexpr Bytes kTrimHeaderSize{64};

class Port final : public sim::EventTarget {
 public:
  using PacketRing = sim::Ring<PacketPtr>;

  /// DCPIM_CHECKs that `cfg.propagation` is positive: an arrival then
  /// never lands at its sender's own instant. Nothing changes the
  /// propagation delay after construction.
  Port(Device& owner, int index, PortConfig cfg);

  /// Typed simulator events: kind 0 ends the current serialization,
  /// kind 1 delivers the oldest in-flight packet to the peer.
  void on_event(unsigned kind) override;

  /// Wires this port to its peer device; `reverse` is the peer's port that
  /// sends back over the same link (used for PFC pause signalling). Fixes
  /// arrival_delay(), and whether arrivals name `reverse` as their ingress
  /// (only when it runs PFC; see Device::receive).
  void connect(Device* peer, Port* reverse);

  /// Admits a packet to the egress queue, applying drop/trim/mark features,
  /// and starts transmission if the line is idle.
  void enqueue(PacketPtr p);

  /// PFC pause: while paused only control-priority packets are transmitted.
  void set_paused(bool paused);
  bool paused() const { return paused_; }

  /// Link failure injection (§2.1: "failures are a norm"): while down the
  /// port drops everything handed to it; transmission resumes on set_link_up.
  void set_link_up(bool up);
  bool link_up() const { return link_up_; }

  /// Host-stall injection (FaultPlan): while stalled the port transmits
  /// nothing at all — unlike PFC pause, even control packets wait — but
  /// keeps admitting packets to its queues (no drops). Models a paused or
  /// GC-frozen end host rather than a failed link.
  void set_stalled(bool stalled);
  bool stalled() const { return stalled_; }

  /// Dedicated fault RNG stream: loss_rate draws and targeted-drop draws
  /// consume this, never the shared Network RNG, so injecting loss on one
  /// port cannot perturb workload arrivals or any other port (DESIGN.md
  /// §11). Seeded per (network seed, device, port index) at construction.
  Rng& fault_rng() { return fault_rng_; }

  Device& owner() const { return owner_; }
  Device* peer() const { return peer_; }
  Port* reverse() const { return reverse_; }
  int index() const { return index_; }
  const PortConfig& config() const { return cfg_; }

  /// Runtime rewrites of the link (degrade and loss faults, tests); the
  /// rest of the config is fixed at construction.
  void set_rate(BitsPerSec rate);
  void set_loss_rate(double rate) { cfg_.loss_rate = rate; }
  void set_gray_loss_rate(double rate) { cfg_.gray_loss_rate = rate; }

  Bytes queued_bytes() const { return total_qbytes_; }
  Bytes queued_bytes(int priority) const { return qbytes_[priority]; }
  bool busy() const { return busy_; }
  /// No packet queued, being serialized or propagating on this link.
  bool idle() const {
    return total_qbytes_ == Bytes{} && !busy_ && inflight_.empty();
  }

  /// Serialization time of `bytes` on this link.
  Time tx_time(Bytes bytes) const;

  /// From serialization end to the packet's arrival at the peer: the
  /// propagation delay plus the peer's ingress latency (kSwitchLatency or
  /// kHostLatency). Set by connect().
  Time arrival_delay() const { return arrival_delay_; }

  // --- statistics (public, after the per-packet state below) -------------
  // drops, injected_drops, trims, ecn_marks, tx_bytes, tx_packets and
  // busy_time are declared at the end of the class.

 private:
  void try_transmit();
  /// Drops `p`, releasing switch-side (PFC) accounting and firing the
  /// network drop observers with the attributed reason.
  void drop_packet(PacketPtr p, DropReason reason);
  /// The highest priority with a transmittable packet queued, or -1.
  int next_priority_to_send() const;

  // Layout: enqueue, try_transmit and on_event touch the members from here
  // to busy_time on every packet, so they come first and sit together: the
  // flags (in EventTarget's tail) and pointers, the per-priority byte
  // counts, cfg_ (its per-packet fields lead), the scalars, then the eight
  // queue rings.
  bool busy_ = false;
  bool paused_ = false;
  bool link_up_ = true;
  bool stalled_ = false;
  /// Bit p set while queues_[p] holds a packet.
  std::uint8_t nonempty_ = 0;
  /// reverse_ runs PFC, so arrivals name it as their ingress (connect()).
  bool reverse_pfc_ = false;
  Network& net_;
  Device& owner_;
  Device* peer_ = nullptr;
  Port* reverse_ = nullptr;
  PacketPtr tx_packet_;  ///< being serialized while busy_
  std::array<Bytes, kNumPriorities> qbytes_{};
  PortConfig cfg_;
  Time arrival_delay_{};
  Bytes total_qbytes_{};
  /// The whole picoseconds per byte at cfg_.rate (exact_byte_time; Time{}
  /// when not whole), kept by the constructor and set_rate().
  Time byte_time_{};
  TimePoint last_arrival_{};  ///< arrival time of the newest in-flight packet
  std::array<PacketRing, kNumPriorities> queues_;
  PacketRing inflight_;  ///< serialized and propagating, oldest first

 public:
  Bytes tx_bytes{};            ///< cumulative bytes fully transmitted
  PacketCount tx_packets{};
  Time busy_time{};            ///< cumulative time spent serializing
  std::uint64_t drops = 0;           ///< all drops, any reason
  std::uint64_t injected_drops = 0;  ///< the is_injected_drop() subset
  std::uint64_t trims = 0;
  std::uint64_t ecn_marks = 0;

 private:
  int index_;
  Rng fault_rng_;
};

class Device {
 public:
  enum class Kind { Host, Switch };

  Device(Network& net, Kind kind, std::string name);
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Called when a packet finishes arriving over a link. `in` is the
  /// device's own port facing the sender when that port runs PFC (the only
  /// use a receiver has for it), and nullptr otherwise — on links without
  /// PFC and for host-injected packets.
  virtual void receive(PacketPtr p, Port* in) = 0;

  /// Hook invoked by a Port when a buffered packet starts transmission
  /// (i.e. leaves this device's buffer) or is dropped. Used for PFC
  /// accounting, so a transmitted packet reports only if it carries a PFC
  /// ingress tag (Packet::pfc_ingress).
  virtual void on_packet_departed(const Packet& /*p*/) {}

  /// Called after add_port() attaches a new port — topology-build time, so
  /// subclasses size per-port state here instead of lazily on the hot path.
  virtual void on_port_added(Port& /*port*/) {}

  /// DCPIM_CHECKs that the device stays below 2^15 ports, the range of
  /// Packet::pfc_ingress.
  Port* add_port(const PortConfig& cfg);

  Network& network() const { return net_; }
  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  int device_id() const { return device_id_; }

  std::vector<std::unique_ptr<Port>> ports;

 private:
  friend class Network;
  Network& net_;
  Kind kind_;
  std::string name_;
  int device_id_ = -1;  ///< set by Network::register_device
};

}  // namespace dcpim::net
