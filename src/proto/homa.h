// Homa (SIGCOMM'18) and Homa Aeolus (SIGCOMM'20) baselines.
//
// Faithful-in-shape model of the receiver-driven design the paper compares
// against (§4.1):
//  * Senders blindly transmit the first RTT-bytes (1 BDP) "unscheduled" at a
//    size-dependent high priority; the rest is "scheduled" — admitted by
//    per-packet receiver grants (modelled as tokens) at a lower priority.
//  * Receivers grant the `overcommit` shortest-remaining incomplete flows
//    simultaneously, each paced at access line rate with a 1-BDP window —
//    Homa's overcommitment, which fills last-hop buffers under load.
//  * Plain Homa recovers losses only through slow receiver-side resend
//    timers (the behaviour that costs it utilization at realistic buffers).
//  * The Aeolus variant adds (a) switch-side selective dropping of
//    unscheduled packets (PortConfig::aeolus_threshold) and (b) a probe
//    after the unscheduled burst so first-RTT losses are retransmitted
//    quickly through the scheduled path.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "net/host.h"
#include "net/topology.h"

namespace dcpim::proto {

struct HomaConfig {
  // Topology-derived (filled after build, before the simulation starts).
  Bytes bdp_bytes{};    ///< RTT-bytes: unscheduled allowance & grant window
  Time control_rtt{};

  int overcommit = 2;  ///< scheduled flows granted concurrently per receiver
  /// Unscheduled priority cutoffs by flow size; level i is used when
  /// size <= cutoffs[i] (priorities 1..n, smaller flows higher priority).
  /// Empty = geometric defaults from the BDP.
  std::vector<Bytes> unsched_cutoffs;
  std::uint8_t scheduled_priority = 5;

  bool aeolus = false;  ///< probe-based first-RTT loss recovery
  /// Plain-Homa resend timer (receiver-side); zero = 20 control RTTs.
  Time resend_interval{};
  int max_resends = 100;

  Time effective_resend() const {
    return resend_interval > Time{} ? resend_interval : control_rtt * 20;
  }
};

class HomaHost : public net::Host {
 public:
  HomaHost(net::Network& net, int host_id, const net::PortConfig& nic,
           const HomaConfig& cfg);

  void on_flow_arrival(net::Flow& flow) override;

  struct Counters {
    std::uint64_t unsched_sent = 0;
    std::uint64_t sched_sent = 0;
    std::uint64_t grants_sent = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t resend_requests = 0;
    std::uint64_t notify_retx = 0;
  };
  const Counters& counters() const { return counters_; }

  std::uint64_t loss_recovery_count() const override {
    return counters_.resend_requests + counters_.notify_retx;
  }

 protected:
  void on_packet(net::PacketPtr p) override;

 private:
  struct TxFlow {
    net::Flow* flow = nullptr;
    std::uint32_t packets = 0;
    std::uint32_t unsched_packets = 0;
    bool done = false;
    bool grant_seen = false;  ///< receiver engaged; notify retries stop
  };

  struct RxFlow {
    net::Flow* flow = nullptr;
    std::uint32_t packets = 0;
    std::uint32_t unsched_packets = 0;
    std::uint32_t next_new_seq = 0;  ///< next never-granted scheduled seq
    std::set<std::uint32_t> readmit;  ///< lost seqs to re-grant (ordered)
    std::map<std::uint32_t, TimePoint> outstanding;  ///< grant instant
    bool pacer_running = false;
    Bytes last_progress_bytes{};
    int resends = 0;
  };

  std::uint8_t unsched_priority_for(Bytes size) const;
  std::uint32_t window_packets() const;
  /// Sender-side pacer: granted packets go out one per MTU-time, so a
  /// sender granted by many receivers at once (dense TMs) queues grants
  /// instead of overflowing its own NIC — this is exactly the "sender can
  /// respond to only one receiver's grant at a time" behaviour the paper
  /// blames for Homa's slow convergence in Figure 4(a).
  void sender_pacer_tick();

  RxFlow* ensure_rx_flow(std::uint64_t flow_id);
  void handle_data(net::PacketPtr p);
  void handle_grant(const net::Packet& p);
  void handle_probe(const net::Packet& p);
  void recompute_active();
  void grant_tick(std::uint64_t flow_id);
  bool issue_grant(RxFlow& rx);
  void resend_check(std::uint64_t flow_id);
  void notify_check(std::uint64_t flow_id);

  const HomaConfig& cfg_;
  Counters counters_;

  std::map<std::uint64_t, TxFlow> tx_flows_;
  struct PendingGrant {
    std::uint64_t flow_id;
    std::uint32_t seq;
    std::uint8_t priority;
  };
  std::deque<PendingGrant> grant_queue_;
  bool sender_pacer_running_ = false;
  std::map<std::uint64_t, RxFlow> rx_flows_;
  /// Receiver-side flows eligible for scheduling (incomplete, have work).
  std::set<std::uint64_t> sched_candidates_;
  /// Currently granted (top `overcommit` by remaining bytes).
  std::set<std::uint64_t> active_;
};

net::Topology::HostFactory homa_host_factory(const HomaConfig& cfg);

}  // namespace dcpim::proto
