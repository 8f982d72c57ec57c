// Loss-based TCP baseline (Reno-style AIMD) for the testbed comparison
// (Figure 7). The paper runs TCP Cubic; Reno is a documented substitution —
// both are queue-building loss-based controls, which is the behaviour the
// comparison exercises (see DESIGN.md).
#pragma once

#include "net/topology.h"
#include "proto/window_transport.h"

namespace dcpim::proto {

class TcpHost : public WindowHost {
 public:
  TcpHost(net::Network& net, int host_id);

 protected:
  void on_ack_event(WFlow& f, const AckPacket& ack) override;
  void on_fast_retransmit(WFlow& f) override;
  void on_timeout(WFlow& f) override;
};

net::Topology::HostFactory tcp_host_factory();

}  // namespace dcpim::proto
