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

#include "net/host.h"
#include "net/topology.h"

namespace dcpim::proto {

struct PhostConfig {
  Bytes bdp_bytes{};   ///< free-token allowance & per-flow window
  Time control_rtt{};
  std::uint8_t short_priority = 1;
  std::uint8_t long_priority = 2;
  /// Token unused-expiry at the receiver; zero = 3 control RTTs.
  Time token_timeout{};
  /// Receiver gives up on a sender after this many consecutive expired
  /// tokens and deprioritizes the flow for one timeout period.
  int max_expired_before_downgrade = 8;

  Time effective_token_timeout() const {
    return token_timeout > Time{} ? token_timeout : control_rtt * 3;
  }
};

class PhostHost : public net::Host {
 public:
  PhostHost(net::Network& net, int host_id, const net::PortConfig& nic,
            const PhostConfig& cfg);

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
  struct TxFlow {
    net::Flow* flow = nullptr;
    std::uint32_t packets = 0;
  };

  struct RxFlow {
    net::Flow* flow = nullptr;
    std::uint32_t packets = 0;
    std::uint32_t free_packets = 0;   ///< sent unscheduled by the sender
    std::uint32_t next_new_seq = 0;
    std::set<std::uint32_t> readmit;  ///< timed-out grants to re-issue
    std::map<std::uint32_t, TimePoint> outstanding;
    int consecutive_expired = 0;
    TimePoint downgraded_until{};
    TimePoint created_at{};
    bool free_burst_checked = false;  ///< lost unscheduled seqs swept once
  };

  RxFlow* ensure_rx(std::uint64_t flow_id);
  void arm_rts_retry(std::uint64_t flow_id, int attempt);
  /// pHost senders transmit at most one packet per MTU-time; tokens beyond
  /// that queue here and may expire at the receiver (its downgrade signal).
  void sender_pacer_tick();
  void handle_data(net::PacketPtr p);
  void handle_token(const net::Packet& p);
  void receiver_tick();
  RxFlow* pick_flow();  ///< SRPT among grantable flows
  void expire_stale(RxFlow& rx);

  const PhostConfig& cfg_;
  Counters counters_;

  std::map<std::uint64_t, TxFlow> tx_flows_;
  struct PendingToken {
    std::uint64_t flow_id;
    std::uint32_t seq;
    std::uint8_t priority;
  };
  std::deque<PendingToken> token_queue_;
  bool sender_pacer_running_ = false;
  std::map<std::uint64_t, RxFlow> rx_flows_;
  bool pacer_running_ = false;
};

net::Topology::HostFactory phost_host_factory(const PhostConfig& cfg);

}  // namespace dcpim::proto
