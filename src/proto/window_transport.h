// Shared machinery for the reactive window-based baselines (HPCC / DCTCP /
// TCP): per-flow congestion window, ack-clocked transmission, duplicate-ack
// fast retransmit, and an RTO fallback. Subclasses implement the congestion
// response (on_ack_event / on_fast_retransmit / on_timeout).
//
// Receivers ack every data packet with a selective + cumulative ack that
// echoes the ECN CE mark and any INT telemetry, which is all the three
// protocols need.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "net/host.h"
#include "net/topology.h"
#include "proto/common.h"

namespace dcpim::proto {

/// The initial window is 1 BDP (Network::bdp()); the base RTT is the
/// fabric's longest unloaded data RTT (Network::max_data_rtt()) and the
/// minimum RTO is 20 of them.
class WindowHost : public net::Host {
 public:
  /// `collect_int`: data packets gather per-hop telemetry (HPCC).
  WindowHost(net::Network& net, int host_id, bool collect_int = false);

  void on_flow_arrival(net::Flow& flow) override;

  struct Counters {
    std::uint64_t data_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t ecn_echoes = 0;
  };
  const Counters& counters() const { return counters_; }

  std::uint64_t loss_recovery_count() const override {
    return counters_.retransmissions;
  }

 protected:
  /// Sender-side record, held until the cumulative ack covers the flow.
  struct WFlow : net::FlowState {
    double cwnd_bytes = 0;
    double ssthresh = 1e18;
    std::uint32_t next_new_seq = 0;
    std::set<std::uint32_t> retx;  ///< ordered: lowest lost seq resent first
    std::map<std::uint32_t, TimePoint> inflight;
    SeqBitmap acked;  ///< selectively-acked seqs (membership only)
    std::uint32_t cum_ack = 0;
    int dupacks = 0;
    std::uint32_t fast_retx_seq = UINT32_MAX;  ///< once per loss episode
    Time srtt{};
    int consecutive_timeouts = 0;

    // --- subclass scratch space ------------------------------------------
    // HPCC
    std::vector<net::IntHopRecord> last_int;
    double wc_bytes = 0;
    int inc_stage = 0;
    std::uint32_t last_update_seq = 0;
    // DCTCP
    double dctcp_alpha = 0;
    std::uint32_t window_acks = 0;
    std::uint32_t window_marks = 0;
    TimePoint window_start{};
    TimePoint last_cut{};
  };

  /// Congestion response to a (non-duplicate) ack.
  virtual void on_ack_event(WFlow& f, const AckPacket& ack) = 0;
  /// Loss inferred via duplicate acks.
  virtual void on_fast_retransmit(WFlow& f) = 0;
  /// Retransmission timeout fired.
  virtual void on_timeout(WFlow& f) = 0;
  /// Subclass hook run when the flow's state is created.
  virtual void on_flow_init(WFlow& /*f*/) {}

  void try_send(const net::Flow& flow, WFlow& f);
  static Bytes mss() { return net::kMtuPayload; }
  Time rto(const WFlow& f) const;
  Time rto_floor() const { return network().max_data_rtt() * 20; }

  void on_packet(net::PacketPtr p) override;

 private:
  void handle_data(net::PacketPtr p);
  void handle_ack(net::PacketPtr p);
  void arm_rto(std::uint64_t flow_id);

  const bool collect_int_;
  Counters counters_;
};

}  // namespace dcpim::proto
