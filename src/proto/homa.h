// Homa (SIGCOMM'18) and Homa Aeolus (SIGCOMM'20) baselines.
//
// Faithful-in-shape model of the receiver-driven design the paper compares
// against (§4.1):
//  * Senders blindly transmit the first RTT-bytes (1 BDP) "unscheduled" at a
//    size-dependent high priority; the rest is "scheduled" — admitted by
//    per-packet receiver grants (modelled as tokens) at a lower priority.
//  * Receivers grant the two shortest-remaining incomplete flows
//    simultaneously (overcommit 2), each paced at access line rate with a
//    1-BDP window — Homa's overcommitment, which fills last-hop buffers
//    under load.
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

#include "net/host.h"
#include "net/topology.h"

namespace dcpim::proto {

/// RTT-bytes, the unscheduled allowance and grant window, is 1 BDP
/// (Network::bdp()); the plain-Homa resend timer is 20 cRTTs.
class HomaHost : public net::Host {
 public:
  /// `aeolus`: probe-based first-RTT loss recovery (Homa Aeolus).
  HomaHost(net::Network& net, int host_id, bool aeolus);

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
  /// Held until notify_check stops re-announcing the flow.
  struct TxFlow : net::FlowState {
    bool grant_seen = false;  ///< receiver engaged; notify retries stop
  };

  struct RxFlow : net::FlowState {
    std::uint32_t next_new_seq = 0;  ///< next never-granted scheduled seq
    std::set<std::uint32_t> readmit;  ///< lost seqs to re-grant (ordered)
    std::map<std::uint32_t, TimePoint> outstanding;  ///< grant instant
    bool pacer_running = false;
    Bytes last_progress_bytes{};
    int resends = 0;
  };

  Time resend_period() const { return network().max_control_rtt() * 20; }
  std::uint8_t unsched_priority_for(Bytes size) const;
  std::uint32_t window_packets() const;
  /// Leading packets of `flow` sent blind (the first RTT-bytes).
  std::uint32_t unsched_packets(const net::Flow& flow) const;
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
  bool issue_grant(const net::Flow& flow, RxFlow& rx);
  void resend_check(std::uint64_t flow_id);
  void notify_check(std::uint64_t flow_id);

  const bool aeolus_;
  Counters counters_;

  struct PendingGrant {
    std::uint64_t flow_id;
    std::uint32_t seq;
    std::uint8_t priority;
  };
  std::deque<PendingGrant> grant_queue_;
  bool sender_pacer_running_ = false;
  /// Receiver-side flows eligible for scheduling (incomplete, have work).
  std::set<std::uint64_t> sched_candidates_;
  /// Currently granted (top kOvercommit by remaining bytes).
  std::set<std::uint64_t> active_;
};

net::Topology::HostFactory homa_host_factory(bool aeolus);

/// Port customization enabling Aeolus's selective dropping on every link:
/// unscheduled packets yield once a queue holds more than 1/8 of its buffer.
void homa_port_customize(net::PortConfig& cfg);

}  // namespace dcpim::proto
