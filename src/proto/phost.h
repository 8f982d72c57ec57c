// pHost baseline (Gao et al., CoNEXT'15) — the receiver-driven design whose
// simulator the dcPIM paper builds on, and whose "effectively one round of
// matching" behaviour Theorem 1 explains (§1 footnote, §3.1).
//
// Model:
//  * On flow arrival the sender issues an RTS and may spend "free tokens" —
//    the first BDP goes out immediately, unscheduled.
//  * Each receiver runs one token pacer at line rate; every MTU-time it
//    grants one packet to its highest-priority pending flow (SRPT by
//    remaining bytes). This is the one-flow-at-a-time downlink assignment
//    that amounts to a single implicit matching round.
//  * Senders may hold tokens from several receivers but can only transmit
//    one packet per MTU-time; tokens unused past a timeout are expired by
//    the receiver and re-granted (pHost's token expiry), which lets the
//    receiver switch to another sender — the "catch up" mechanism.
//  * Data priorities: short flows high, long flows low, like dcPIM.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "net/host.h"
#include "net/topology.h"

namespace dcpim::proto {

/// The free-token allowance and per-flow window are 1 BDP
/// (Network::bdp()); the receiver expires unused tokens after 3 cRTTs.
class PhostHost : public net::Host {
 public:
  PhostHost(net::Network& net, int host_id);

  void on_flow_arrival(net::Flow& flow) override;

  struct Counters {
    std::uint64_t rts_sent = 0;
    std::uint64_t free_tokens_spent = 0;
    std::uint64_t tokens_sent = 0;
    std::uint64_t tokens_expired = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t downgrades = 0;
  };
  const Counters& counters() const { return counters_; }

  /// pHost recovers from loss via its receiver token timeout, observed at
  /// the sender as stale (expired) tokens it must ignore and re-earn.
  std::uint64_t loss_recovery_count() const override {
    return counters_.tokens_expired;
  }

 protected:
  void on_packet(net::PacketPtr p) override;

 private:
  struct RxFlow : net::FlowState {
    std::uint32_t free_packets = 0;   ///< sent unscheduled by the sender
    std::uint32_t next_new_seq = 0;
    std::set<std::uint32_t> readmit;  ///< timed-out grants to re-issue
    std::map<std::uint32_t, TimePoint> outstanding;
    int consecutive_expired = 0;
    TimePoint downgraded_until{};
    TimePoint created_at{};
    bool free_burst_checked = false;  ///< lost unscheduled seqs swept once
  };

  Time token_expiry() const { return network().max_control_rtt() * 3; }
  RxFlow* ensure_rx(std::uint64_t flow_id);
  void arm_rts_retry(std::uint64_t flow_id, int attempt);
  /// pHost senders transmit at most one packet per MTU-time; tokens beyond
  /// that queue here and may expire at the receiver (its downgrade signal).
  void sender_pacer_tick();
  void handle_data(net::PacketPtr p);
  void handle_token(const net::Packet& p);
  void receiver_tick();
  net::Flow* pick_flow();  ///< SRPT among grantable flows
  void expire_stale(const net::Flow& flow, RxFlow& rx);

  Counters counters_;

  struct PendingToken {
    std::uint64_t flow_id;
    std::uint32_t seq;
    std::uint8_t priority;
  };
  std::deque<PendingToken> token_queue_;
  bool sender_pacer_running_ = false;
  /// Ascending ids of the flows holding an RxFlow: pick_flow's walk order.
  std::vector<std::uint64_t> rx_ids_;
  bool pacer_running_ = false;
};

net::Topology::HostFactory phost_host_factory();

}  // namespace dcpim::proto
