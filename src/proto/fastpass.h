// Fastpass-style centralized baseline (Perry et al., SIGCOMM'14) — the
// related-work design the dcPIM paper contrasts against (§5): a central
// arbiter computes per-timeslot matchings with a global view, which buys
// utilization but costs every flow (including the shortest) a round trip to
// the arbiter before its first byte moves — "their average and tail latency
// is at least 2x away from optimal".
//
// Model: the arbiter is a logical entity reached in half a control RTT
// (requests and allocations are modelled as scheduled callbacks, not
// packets — the paper's Fastpass uses a dedicated control network). Every
// timeslot (one MTU transmission time) it computes a greedy maximal
// matching over the outstanding demand matrix and hands one packet's
// allocation to each matched sender.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "net/host.h"
#include "net/topology.h"

namespace dcpim::proto {

class FastpassHost;

/// The centralized scheduler. One per network; hosts talk to it through
/// half-cRTT-delayed calls.
class FastpassArbiter {
 public:
  explicit FastpassArbiter(net::Network& net);

  /// Sender requests `packets` worth of timeslots for flow (src -> dst).
  void add_demand(int src, int dst, std::uint64_t flow_id,
                  std::uint32_t packets);

  void register_host(int host_id, FastpassHost* host);

  std::uint64_t slots_allocated() const { return slots_allocated_; }
  std::uint64_t matchings_computed() const { return matchings_computed_; }

 private:
  void tick();

  struct PairDemand {
    std::deque<std::pair<std::uint64_t, std::uint32_t>> flows;  ///< id, pkts
    std::uint32_t total = 0;
  };

  net::Network& net_;
  std::map<int, FastpassHost*> hosts_;
  /// demand[(src,dst)] — per-pair FIFO of flow allocations to hand out.
  std::map<std::pair<int, int>, PairDemand> demand_;
  bool running_ = false;
  std::uint64_t slots_allocated_ = 0;
  std::uint64_t matchings_computed_ = 0;
};

/// Host <-> arbiter round trip is the fabric cRTT
/// (Network::max_control_rtt()), a timeslot is one MTU transmission time at
/// the host rate, and the sender-side loss timeout is 10 cRTTs.
class FastpassHost : public net::Host {
 public:
  FastpassHost(net::Network& net, int host_id, FastpassArbiter& arbiter);

  void on_flow_arrival(net::Flow& flow) override;

  /// Arbiter callback (already delayed by cRTT/2): transmit one packet of
  /// `flow_id` in this timeslot.
  void on_allocation(std::uint64_t flow_id);

  struct Counters {
    std::uint64_t requests_sent = 0;
    std::uint64_t allocations_received = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t rerequests = 0;
  };
  const Counters& counters() const { return counters_; }

  std::uint64_t loss_recovery_count() const override {
    return counters_.rerequests;
  }

 protected:
  void on_packet(net::PacketPtr p) override;

 private:
  struct TxFlow : net::FlowState {
    std::uint32_t next_seq = 0;
    std::deque<std::uint32_t> retransmit;
  };

  void arm_loss_timer(std::uint64_t flow_id);

  FastpassArbiter& arbiter_;
  Counters counters_;
};

/// Builds hosts bound to a shared arbiter. The arbiter must be created
/// after the Network but before the topology (see tests for the pattern).
net::Topology::HostFactory fastpass_host_factory(FastpassArbiter& arbiter);

}  // namespace dcpim::proto
