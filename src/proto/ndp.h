// NDP baseline (Handley et al., SIGCOMM'17).
//
// Shape-faithful model of the re-architected pull-based design the paper
// compares against (§4.1):
//  * Senders blast the first BDP blind at line rate.
//  * Switches run tiny (8-packet) data queues and *trim* overflowing
//    packets to headers, forwarded at control priority
//    (PortConfig::trim_enable, set by the topology customization).
//  * Receivers learn of trimmed packets immediately, NACK them, and pace a
//    per-receiver pull queue at line rate; each pull releases one packet
//    (retransmissions first) from the sender.
//  * A sender-side RTO covers the rare loss of headers/control.
#pragma once

#include <cstdint>
#include <deque>
#include <set>

#include "net/host.h"
#include "net/topology.h"
#include "proto/common.h"

namespace dcpim::proto {

/// The initial blind window is 1 BDP (Network::bdp()); the sender
/// fallback timer is 20 cRTTs.
class NdpHost : public net::Host {
 public:
  NdpHost(net::Network& net, int host_id);

  void on_flow_arrival(net::Flow& flow) override;

  struct Counters {
    std::uint64_t initial_window_sent = 0;
    std::uint64_t pulls_sent = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t trimmed_seen = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t rto_fires = 0;
  };
  const Counters& counters() const { return counters_; }

  std::uint64_t loss_recovery_count() const override {
    return counters_.retransmissions + counters_.rto_fires;
  }

 protected:
  void on_packet(net::PacketPtr p) override;

 private:
  struct TxFlow : net::FlowState {
    std::uint32_t next_new_seq = 0;
    std::set<std::uint32_t> retx;  ///< NACKed seqs awaiting a pull (ordered)
    net::SeqBitmap acked;          ///< receiver-confirmed seqs (membership)
    int rto_count = 0;
    TimePoint last_progress{};
  };

  Time fallback_timeout() const { return network().max_control_rtt() * 20; }
  /// Releases one packet (retransmissions first).
  void send_one(const net::Flow& flow, TxFlow& tx);
  void handle_pull(const net::Packet& p);
  void handle_nack(const net::Packet& p);
  void handle_ack(const net::Packet& p);
  void handle_data_or_header(net::PacketPtr p);
  void enqueue_pull(std::uint64_t flow_id, bool urgent);
  void pull_tick();
  void arm_rto(std::uint64_t flow_id);

  Counters counters_;

  std::deque<std::uint64_t> pull_queue_;  ///< flow ids awaiting pulls
  bool pull_pacer_running_ = false;
};

net::Topology::HostFactory ndp_host_factory();

/// Port customization enabling NDP's trimming queues on every link.
void ndp_port_customize(net::PortConfig& cfg);

}  // namespace dcpim::proto
