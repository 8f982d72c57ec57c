#include "net/host.h"

#include "util/logging.h"

namespace dcpim::net {

Host::Host(Network& net, int host_id)
    : Device(net, Kind::Host, "host" + std::to_string(host_id)),
      host_id_(host_id) {
  // The NIC port itself is created when the topology wires this host to its
  // switch (Network::connect); nic() refers to ports[0] afterwards.
  net.register_host(this);
}

// sa-hot: per-packet NIC ingress; protocol on_packet dispatch is the
// hot-scope boundary (protocols manufacture control packets by design).
void Host::receive(PacketPtr p, Port* /*in*/) { on_packet(std::move(p)); }

void Host::send(PacketPtr p) {
  network().notify_injected(*p);
  nic()->enqueue(std::move(p));
}

// sa-hot: one call per data packet on the wire. Data packets cycle through
// the network's PacketPool: acquire() here, release at whichever drop or
// delivery site destroys the PacketPtr (PacketDeleter funnels them back).
PacketPtr Host::make_data_packet(const Flow& flow, DataPacketSpec spec) const {
  PacketPool& pool = network().packet_pool();
  PacketPtr p = spec.collect_int ? pool.acquire_int() : pool.acquire();
  p->src = flow.src;
  p->dst = flow.dst;
  p->flow_id = flow.id;
  p->seq = spec.seq;
  p->payload = flow.payload_of(spec.seq);
  p->size = p->payload + kHeaderBytes;
  p->priority = spec.priority;
  p->unscheduled = spec.unscheduled;
  p->created_at = network().sim().now();
  return p;
}

// sa-hot: every delivered data packet lands here.
Bytes Host::accept_data(const Packet& p) {
  Flow* flow = network().flow(p.flow_id);
  if (flow == nullptr) {
    LOG_WARN("host %d received data for unknown flow %llu", host_id_,
             static_cast<unsigned long long>(p.flow_id));
    return Bytes{};
  }
  FlowRxState& st = rx_state(*flow);
  const bool was_complete = st.complete();
  const Bytes fresh = st.on_data(p.seq);
  if (fresh > Bytes{}) {
    // Per-host delivery counter, summed at read time
    // (Network::total_payload_delivered).
    payload_delivered_ += fresh;
    network().notify_payload(fresh, network().sim().now());
    if (!was_complete && st.complete()) {
      // The finish stamp is written before the network (which merely
      // counts and notifies observers) hears about the completion.
      flow->finish_time = network().sim().now();
      network().flow_completed(*flow);
    }
  }
  return fresh;
}

FlowRxState& Host::rx_state(Flow& flow) {
  DCPIM_CHECK_EQ(flow.dst, host_id_, "data accepted off its flow's dst");
  if (!flow.rx) {
    // sa-ok(hot-alloc): once per flow (first data packet), not per packet.
    flow.rx.emplace(&flow);
  }
  return *flow.rx;
}

const FlowRxState* Host::find_rx_state(std::uint64_t flow_id) const {
  const Flow* flow = network().flow(flow_id);
  if (flow == nullptr || flow->dst != host_id_ || !flow->rx) return nullptr;
  return &*flow->rx;
}

Time Host::mtu_tx_time() const {
  return nic()->tx_time(kMtuWire);
}

}  // namespace dcpim::net
