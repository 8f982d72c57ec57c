// Host base class: NIC port plus the shared sender/receiver helpers every
// protocol builds on (packet factories, receive-side reassembly, completion
// signalling). A protocol implements on_flow_arrival() and on_packet().
#pragma once

#include "util/check.h"
#include <cstdint>
#include <memory>
#include <type_traits>

#include "net/device.h"
#include "net/flow.h"
#include "net/network.h"
#include "net/packet.h"

namespace dcpim::net {

class Host : public Device {
 public:
  /// Registers the host; its NIC port is the first port wired up by the
  /// topology builder (Network::connect).
  Host(Network& net, int host_id);

  int host_id() const { return host_id_; }
  Port* nic() const {
    DCPIM_CHECK(!ports.empty(), "host not wired to the topology yet");
    return ports[0].get();
  }

  /// Device interface: unwraps the packet and forwards to the protocol.
  void receive(PacketPtr p, Port* in) final;

  /// New locally-originated flow to transmit.
  virtual void on_flow_arrival(Flow& flow) = 0;

  /// Count of loss-recovery actions this host has taken so far: protocol-
  /// defined (retransmissions, RTO fires, token readmissions, resend
  /// requests, ...). Feeds the fault-injection recovery metrics
  /// (sim::fault::RecoveryStats::recovery_actions; DESIGN.md §11).
  virtual std::uint64_t loss_recovery_count() const { return 0; }

  /// Payload bytes this host has accepted (deduped), a host-owned counter:
  /// Network::total_payload_delivered() sums these on demand.
  Bytes payload_delivered() const { return payload_delivered_; }

 protected:
  /// Protocol packet handler (both sender- and receiver-side packets).
  virtual void on_packet(PacketPtr p) = 0;

  // --- sender-side helpers ---------------------------------------------------
  /// Enqueues a packet on the NIC.
  void send(PacketPtr p);

  /// Field-named argument pack for make_data_packet. Designated initializers
  /// at the call site keep the seq/priority/unscheduled triple from being
  /// silently swapped (bugprone-easily-swappable-parameters).
  struct DataPacketSpec {
    std::uint32_t seq = 0;      ///< data packet index within the flow
    std::uint8_t priority = 0;  ///< strict-priority queue at every port
    bool unscheduled = false;   ///< sent without receiver admission
    bool collect_int = false;   ///< an IntPacket that gathers HPCC telemetry
  };

  /// Builds a data packet for `flow` packet index `spec.seq`.
  PacketPtr make_data_packet(const Flow& flow, DataPacketSpec spec) const;

  /// Builds a protocol control packet skeleton of type T (derived from
  /// Packet), addressed from this host to `dst`, at control priority.
  /// `kind` must be the protocol's packet-kind enumerator: keeping it an
  /// enum (not int) means dst and kind cannot be transposed.
  template <typename T, typename KindT>
  std::unique_ptr<T> make_control(int dst, KindT kind) const {
    static_assert(std::is_enum_v<KindT>,
                  "pass the protocol's packet-kind enumerator, not a raw int");
    auto p = std::make_unique<T>();
    p->src = host_id_;
    p->dst = dst;
    p->size = kControlPacketBytes;
    p->priority = 0;
    p->control = true;
    p->kind = kind;
    p->created_at = network().sim().now();
    return p;
  }

  // --- receiver-side helpers ---------------------------------------------------
  /// Records receipt of a data packet: dedupes, accounts utilization, and
  /// signals flow completion. Returns the number of new payload bytes.
  Bytes accept_data(const Packet& p);

  /// Receiver-side reassembly state for a flow this host is the
  /// destination of (created on first use, held on the Flow).
  FlowRxState& rx_state(Flow& flow);

 public:
  /// Receiver-side reassembly state, if any: null before the flow's first
  /// data packet and on every host but the flow's destination.
  const FlowRxState* find_rx_state(std::uint64_t flow_id) const;

 protected:

  /// MTU transmission time on this host's NIC (full data packet).
  Time mtu_tx_time() const;

  // --- per-flow transport records ----------------------------------------------
  /// The end of a flow a transport record belongs to: the sender is the
  /// flow's src host, the receiver its dst host.
  enum class Role { kSender, kReceiver };

  /// Creates this host's `role` record for `flow`. The slot must be empty
  /// (never created, or released) and this host must be that end.
  template <typename T>
  T& create_state(Flow& flow, Role role) {
    std::unique_ptr<FlowState>* owned = slot(&flow, role);
    DCPIM_CHECK(owned != nullptr, "flow record created off its flow's end");
    DCPIM_CHECK(*owned == nullptr, "flow record created twice");
    auto state = std::make_unique<T>();
    T& ref = *state;
    *owned = std::move(state);
    return ref;
  }

  /// This host's `role` record for the flow, or null: for a null flow,
  /// before the record is created, once it is released, and on every host
  /// but that end.
  template <typename T>
  T* find_state(Flow* flow, Role role) const {
    std::unique_ptr<FlowState>* owned = slot(flow, role);
    return owned != nullptr ? state_cast<T>(owned->get()) : nullptr;
  }
  template <typename T>
  T* find_state(std::uint64_t flow_id, Role role) const {
    return find_state<T>(network().flow(flow_id), role);
  }

  /// Destroys this host's `role` record for `flow`, if it holds one.
  void release_state(Flow& flow, Role role) {
    if (std::unique_ptr<FlowState>* owned = slot(&flow, role)) owned->reset();
  }

 private:
  /// `flow`'s record slot for `role`; null for a null flow and when this
  /// host is not that end.
  std::unique_ptr<FlowState>* slot(Flow* flow, Role role) const {
    if (flow == nullptr) return nullptr;
    if (role == Role::kSender) {
      return flow->src == host_id_ ? &flow->sender_state : nullptr;
    }
    return flow->dst == host_id_ ? &flow->receiver_state : nullptr;
  }

  int host_id_;
  Bytes payload_delivered_{};
};

}  // namespace dcpim::net
