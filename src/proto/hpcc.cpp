#include "proto/hpcc.h"

#include <algorithm>

namespace dcpim::proto {

namespace {
/// Target utilization (eta).
constexpr double kEta = 0.95;
/// Additive-increase stages per RTT.
constexpr int kMaxStage = 5;
}  // namespace

HpccHost::HpccHost(net::Network& net, int host_id)
    : WindowHost(net, host_id, /*collect_int=*/true) {}

void HpccHost::on_flow_init(WFlow& f) {
  f.wc_bytes = f.cwnd_bytes;
  f.last_update_seq = 0;
}

double HpccHost::utilization_estimate(WFlow& f, const AckPacket& ack) const {
  const double t_sec = to_sec(network().max_data_rtt());
  double u = 0.0;
  const std::size_t hops = std::min(ack.int_echo.size(), f.last_int.size());
  for (std::size_t j = 0; j < hops; ++j) {
    const auto& cur = ack.int_echo[j];
    const auto& prev = f.last_int[j];
    // sa-ok(unit-raw): the HPCC utilization estimator (eq. 2) is double-valued
    const double rate_bps = static_cast<double>(cur.rate.raw());
    if (rate_bps <= 0) continue;
    double tx_rate_bps = 0;
    const Time dt = cur.timestamp - prev.timestamp;
    if (dt > Time{} && cur.tx_bytes >= prev.tx_bytes) {
      tx_rate_bps =
          // sa-ok(unit-raw): double-valued telemetry rate estimate
          static_cast<double>((cur.tx_bytes - prev.tx_bytes).raw()) * 8.0 /
          to_sec(dt);
    }
    const double qlen_term =
        // sa-ok(unit-raw): double-valued telemetry queue term
        static_cast<double>(std::min(cur.qlen, prev.qlen).raw()) * 8.0 /
        (rate_bps * t_sec);
    u = std::max(u, qlen_term + tx_rate_bps / rate_bps);
  }
  // First sample for a hop sequence: fall back to instantaneous queue only.
  if (f.last_int.size() != ack.int_echo.size()) {
    for (const auto& hop : ack.int_echo) {
      if (hop.rate <= BitsPerSec{}) continue;
      // sa-ok(unit-raw): double-valued telemetry queue term
      u = std::max(u, static_cast<double>(hop.qlen.raw()) * 8.0 /
                          (static_cast<double>(hop.rate.raw()) * t_sec));
    }
  }
  return u;
}

void HpccHost::on_ack_event(WFlow& f, const AckPacket& ack) {
  if (ack.int_echo.empty()) return;
  const double u = utilization_estimate(f, ack);
  f.last_int = ack.int_echo;

  const double wai = static_cast<double>(
      // sa-ok(unit-raw): additive-increase feeds the double-valued window update
      (mss() / 2).raw());
  double w;
  if (u >= kEta || f.inc_stage >= kMaxStage) {
    w = f.wc_bytes / std::max(u / kEta, 1e-3) + wai;
  } else {
    w = f.wc_bytes + wai;
  }
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  const double cap = 2.0 * static_cast<double>(network().bdp().raw());
  f.cwnd_bytes = std::clamp(w, static_cast<double>(mss().raw()), cap);

  // Reference-window update once per RTT (tracked via acked seq progress).
  if (ack.acked_seq >= f.last_update_seq) {
    f.wc_bytes = f.cwnd_bytes;
    f.inc_stage = u >= kEta ? 0 : f.inc_stage + 1;
    f.last_update_seq = f.next_new_seq;
  }
}

void HpccHost::on_fast_retransmit(WFlow& f) {
  // PFC keeps the fabric lossless in the common case; on the rare loss we
  // halve the reference window.
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.wc_bytes = std::max(f.wc_bytes / 2, static_cast<double>(mss().raw()));
  f.cwnd_bytes = f.wc_bytes;
}

void HpccHost::on_timeout(WFlow& f) {
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.wc_bytes = static_cast<double>(mss().raw());
  f.cwnd_bytes = f.wc_bytes;
  f.inc_stage = 0;
}

net::Topology::HostFactory hpcc_host_factory() {
  return [](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<HpccHost>(host_id);
  };
}

void hpcc_port_customize(net::PortConfig& cfg) {
  cfg.pfc_enable = true;
  // Scale thresholds to the per-port buffer, leaving headroom for one BDP
  // of in-flight data after the pause propagates.
  cfg.pfc_pause_threshold = cfg.buffer_bytes / 4;
  cfg.pfc_resume_threshold = cfg.buffer_bytes / 8;
}

}  // namespace dcpim::proto
