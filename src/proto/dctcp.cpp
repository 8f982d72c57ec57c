#include "proto/dctcp.h"

#include <algorithm>

namespace dcpim::proto {

namespace {
/// EWMA gain of the marked-fraction estimate alpha.
constexpr double kAlphaGain = 1.0 / 16.0;
}  // namespace

DctcpHost::DctcpHost(net::Network& net, int host_id)
    : WindowHost(net, host_id) {}

void DctcpHost::on_ack_event(WFlow& f, const AckPacket& ack) {
  ++f.window_acks;
  if (ack.ecn_echo) ++f.window_marks;

  const TimePoint now = network().sim().now();
  const Time rtt = f.srtt > Time{} ? f.srtt : network().max_data_rtt();
  if (now - f.window_start >= rtt && f.window_acks > 0) {
    const double frac = static_cast<double>(f.window_marks) /
                        static_cast<double>(f.window_acks);
    f.dctcp_alpha = (1.0 - kAlphaGain) * f.dctcp_alpha + kAlphaGain * frac;
    if (f.window_marks > 0) {
      // sa-ok(unit-raw): the congestion window evolves multiplicatively, in
      // doubles
      f.cwnd_bytes =
          std::max(f.cwnd_bytes * (1.0 - f.dctcp_alpha / 2.0),
                   static_cast<double>(mss().raw()));
    }
    f.window_acks = 0;
    f.window_marks = 0;
    f.window_start = now;
  }

  // Standard additive increase (slow start below ssthresh).
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  const double mss_bytes = static_cast<double>(mss().raw());
  if (f.cwnd_bytes < f.ssthresh) {
    f.cwnd_bytes += mss_bytes;
  } else {
    f.cwnd_bytes += mss_bytes * mss_bytes / f.cwnd_bytes;
  }
}

void DctcpHost::on_fast_retransmit(WFlow& f) {
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.ssthresh =
      std::max(f.cwnd_bytes / 2, static_cast<double>((mss() * 2).raw()));
  f.cwnd_bytes = f.ssthresh;
}

void DctcpHost::on_timeout(WFlow& f) {
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.ssthresh =
      std::max(f.cwnd_bytes / 2, static_cast<double>((mss() * 2).raw()));
  f.cwnd_bytes = static_cast<double>(mss().raw());
}

net::Topology::HostFactory dctcp_host_factory() {
  return [](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<DctcpHost>(host_id);
  };
}

void dctcp_port_customize(net::PortConfig& cfg, Bytes threshold) {
  cfg.ecn_threshold = threshold > Bytes{} ? threshold : cfg.buffer_bytes / 4;
}

}  // namespace dcpim::proto
