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

struct WindowConfig {
  Bytes init_cwnd{};   ///< initial window; zero = 1 BDP
  Bytes bdp_bytes{};   ///< topology-derived
  Time base_rtt{};     ///< topology-derived unloaded data RTT
  Time min_rto{};      ///< zero = 20x base_rtt
  std::uint8_t data_priority = 2;
  bool collect_int = false;  ///< HPCC: gather per-hop telemetry
  int dupack_threshold = 3;

  Time effective_min_rto() const {
    return min_rto > Time{} ? min_rto : base_rtt * 20;
  }
  Bytes effective_init_cwnd() const {
    return init_cwnd > Bytes{} ? init_cwnd : bdp_bytes;
  }
};

class WindowHost : public net::Host {
 public:
  WindowHost(net::Network& net, int host_id, const net::PortConfig& nic,
             const WindowConfig& cfg);

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
  struct WFlow {
    net::Flow* flow = nullptr;
    std::uint32_t packets = 0;
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

  void try_send(WFlow& f);
  Bytes mss() const { return network().config().mtu_payload; }
  Time rto(const WFlow& f) const;

  void on_packet(net::PacketPtr p) override;

  const WindowConfig& window_config() const { return cfg_; }

 private:
  void handle_data(net::PacketPtr p);
  void handle_ack(net::PacketPtr p);
  void arm_rto(std::uint64_t flow_id);

  const WindowConfig& cfg_;
  Counters counters_;
  std::map<std::uint64_t, WFlow> flows_;
};

}  // namespace dcpim::proto
