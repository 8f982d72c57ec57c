// HPCC baseline (Li et al., SIGCOMM'19): window control driven by in-band
// network telemetry, over a PFC-lossless fabric.
//
// Data packets collect per-hop (qlen, txBytes, rate, ts) records; acks echo
// them and the sender computes the max per-hop utilization
//   U_j = qlen_j / (B_j * T)  +  txRate_j / B_j
// and applies the HPCC window update (multiplicative toward eta = 0.95,
// with at most five additive-increase stages per RTT). Switch ports run PFC
// (PortConfig::pfc_enable) so drops are replaced by pauses — including the
// head-of-line blocking the paper's Figure 4(a)/(c) exposes.
#pragma once

#include "net/topology.h"
#include "proto/window_transport.h"

namespace dcpim::proto {

/// HPCC data packets always collect INT; the additive increase is half an
/// MTU payload and the window is capped at 2 BDP.
class HpccHost : public WindowHost {
 public:
  HpccHost(net::Network& net, int host_id);

 protected:
  void on_flow_init(WFlow& f) override;
  void on_ack_event(WFlow& f, const AckPacket& ack) override;
  void on_fast_retransmit(WFlow& f) override;
  void on_timeout(WFlow& f) override;

 private:
  double utilization_estimate(WFlow& f, const AckPacket& ack) const;
};

net::Topology::HostFactory hpcc_host_factory();

/// Enables PFC + INT on every port (pause thresholds scaled to the buffer).
void hpcc_port_customize(net::PortConfig& cfg);

}  // namespace dcpim::proto
