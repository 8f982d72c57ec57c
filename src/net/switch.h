// Output-queued switch with shortest-path ECMP routing and optional PFC.
//
// Routing tables are next-hop candidate lists per destination host,
// computed by the topology builder (BFS over the device graph) and kept as
// one flat table of egress Port pointers per switch. Among
// multiple candidates, NetConfig::lb_policy picks the egress: per-packet
// spray (workload RNG, the paper default), a stable per-flow hash, flowlet
// re-hashing after an idle gap, or a rate-weighted draw that follows
// currently-degraded links. Flowlet and weighted draws consume a dedicated
// per-switch LB RNG stream so enabling them cannot perturb workload
// arrivals (same isolation contract as the port fault streams).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/device.h"
#include "net/network.h"
#include "util/rng.h"

namespace dcpim::net {

class Switch : public Device {
 public:
  Switch(Network& net, std::string name);

  void receive(PacketPtr p, Port* in) override;
  void on_packet_departed(const Packet& p) override;

  /// Sizes the per-ingress PFC ledgers eagerly at topology-build time, so
  /// the per-packet accounting path never grows a vector.
  void on_port_added(Port& port) override;

  /// Adds local port `port_index` as an egress candidate toward host
  /// `dst`. Call once the ports exist, in destination order (candidates of
  /// one destination in port order); a destination skipped over gets no
  /// candidates.
  void add_route(int dst, std::uint16_t port_index);

  /// The egress candidates toward host `dst`, in the order they were added.
  std::span<Port* const> next_hops(int dst) const;

  Bytes ingress_buffered(int port_index) const {
    return port_index < static_cast<int>(ingress_bytes_.size())
               ? ingress_bytes_[static_cast<std::size_t>(port_index)]
               : Bytes{};
  }

  /// Whether this switch has asked the upstream peer of `port_index` to
  /// pause (the PFC ledger side; the peer's paused() lags by propagation).
  bool ingress_paused(int port_index) const {
    return port_index < static_cast<int>(ingress_paused_.size()) &&
           ingress_paused_[static_cast<std::size_t>(port_index)];
  }

  std::uint64_t pfc_pauses_sent = 0;

 private:
  /// Flowlet policy state: the sticky egress pick and the last time this
  /// flow sent through here. Looked up by flow id (never iterated).
  struct FlowletState {
    std::uint16_t pick = 0;
    bool valid = false;
    TimePoint last{};
  };

  Port* select_egress(const Packet& p);
  std::size_t weighted_pick(std::span<Port* const> cands);
  void pfc_account_arrival(Packet& p, Port* in);
  void pfc_update(int ingress_index);

  /// Routing table in CSR form: the egress candidates for destination host
  /// h are hop_ports_[hop_begin_[h] .. hop_begin_[h + 1]).
  std::vector<std::uint32_t> hop_begin_{0};
  std::vector<Port*> hop_ports_;
  std::vector<Bytes> ingress_bytes_;
  std::vector<bool> ingress_paused_;
  /// LB RNG stream, disjoint from the workload RNG and the per-port fault
  /// streams; seeded from (network seed, device id) at topology-build time
  /// (on_port_added — the device id is not assigned yet in the
  /// constructor).
  Rng lb_rng_;
  std::map<std::uint64_t, FlowletState> flowlet_;
};

}  // namespace dcpim::net
