#include "proto/tcp.h"

#include <algorithm>

namespace dcpim::proto {

TcpHost::TcpHost(net::Network& net, int host_id)
    : WindowHost(net, host_id) {}

void TcpHost::on_ack_event(WFlow& f, const AckPacket& /*ack*/) {
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  const double mss_bytes = static_cast<double>(mss().raw());
  if (f.cwnd_bytes < f.ssthresh) {
    f.cwnd_bytes += mss_bytes;  // slow start
  } else {
    f.cwnd_bytes += mss_bytes * mss_bytes / f.cwnd_bytes;  // cong. avoidance
  }
}

void TcpHost::on_fast_retransmit(WFlow& f) {
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.ssthresh =
      std::max(f.cwnd_bytes / 2, static_cast<double>((mss() * 2).raw()));
  f.cwnd_bytes = f.ssthresh;
}

void TcpHost::on_timeout(WFlow& f) {
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.ssthresh =
      std::max(f.cwnd_bytes / 2, static_cast<double>((mss() * 2).raw()));
  f.cwnd_bytes = static_cast<double>(mss().raw());
}

net::Topology::HostFactory tcp_host_factory() {
  return [](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<TcpHost>(host_id);
  };
}

}  // namespace dcpim::proto
