// DCTCP baseline (Alizadeh et al., SIGCOMM'10) — used in the testbed
// comparison (Figure 7). Switch ports mark CE above a queue threshold
// (PortConfig::ecn_threshold); the sender maintains the marked fraction
// estimate alpha and cuts the window by alpha/2 once per RTT.
#pragma once

#include "net/topology.h"
#include "proto/window_transport.h"

namespace dcpim::proto {

class DctcpHost : public WindowHost {
 public:
  DctcpHost(net::Network& net, int host_id);

 protected:
  void on_ack_event(WFlow& f, const AckPacket& ack) override;
  void on_fast_retransmit(WFlow& f) override;
  void on_timeout(WFlow& f) override;
};

net::Topology::HostFactory dctcp_host_factory();
/// Switch ECN marking threshold; zero = 1/4 of the port buffer.
void dctcp_port_customize(net::PortConfig& cfg, Bytes threshold);

}  // namespace dcpim::proto
