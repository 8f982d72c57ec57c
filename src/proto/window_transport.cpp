#include "proto/window_transport.h"

#include <algorithm>

#include "util/logging.h"

namespace dcpim::proto {

namespace {
enum WindowKind : int {
  kWinData = 0,
  kWinAck,
};

/// Strict-priority queue of every data packet.
constexpr std::uint8_t kDataPriority = 2;
/// Duplicate acks that trigger a fast retransmit.
constexpr int kDupackThreshold = 3;
}  // namespace

WindowHost::WindowHost(net::Network& net, int host_id, bool collect_int)
    : net::Host(net, host_id), collect_int_(collect_int) {}

void WindowHost::on_flow_arrival(net::Flow& flow) {
  WFlow& f = create_state<WFlow>(flow, Role::kSender);
  f.acked.reset(flow.seq_count());
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.cwnd_bytes = static_cast<double>(network().bdp().raw());
  f.window_start = network().sim().now();
  on_flow_init(f);
  try_send(flow, f);
  arm_rto(flow.id);
}

Time WindowHost::rto(const WFlow& f) const {
  return std::max(rto_floor(), f.srtt * 3);
}

void WindowHost::try_send(const net::Flow& flow, WFlow& f) {
  const Bytes mtu = mss();
  while (true) {
    const Bytes inflight_bytes = mtu * f.inflight.size();
    // sa-ok(unit-raw): compared against the double-valued congestion window
    if (static_cast<double>((inflight_bytes + mtu).raw()) > f.cwnd_bytes &&
        !f.inflight.empty()) {
      return;  // window full (always allow at least one packet out)
    }
    std::uint32_t seq;
    if (!f.retx.empty()) {
      seq = *f.retx.begin();
      f.retx.erase(f.retx.begin());
      ++counters_.retransmissions;
    } else {
      while (f.next_new_seq < flow.seq_count() &&
             f.acked.contains(f.next_new_seq)) {
        ++f.next_new_seq;
      }
      if (f.next_new_seq >= flow.seq_count()) return;
      seq = f.next_new_seq++;
    }
    send(make_data_packet(flow, {.seq = seq,
                                 .priority = kDataPriority,
                                 .collect_int = collect_int_}));
    f.inflight[seq] = network().sim().now();
    ++counters_.data_sent;
  }
}

void WindowHost::arm_rto(std::uint64_t flow_id) {
  network().sim().schedule_after(rto_floor(), [this, flow_id]() {
    net::Flow* flow = network().flow(flow_id);
    WFlow* state = find_state<WFlow>(flow, Role::kSender);
    if (state == nullptr) return;
    WFlow& f = *state;
    const TimePoint now = network().sim().now();
    TimePoint oldest = kTimePointInfinity;
    for (const auto& [seq, at] : f.inflight) oldest = std::min(oldest, at);
    if (!f.inflight.empty() && now - oldest >= rto(f)) {
      ++counters_.timeouts;
      ++f.consecutive_timeouts;
      // Everything unacked is considered lost.
      for (const auto& [seq, at] : f.inflight) f.retx.insert(seq);
      f.inflight.clear();
      on_timeout(f);
      try_send(*flow, f);
    }
    arm_rto(flow_id);
  });
}

// ===== receiver side ========================================================

void WindowHost::handle_data(net::PacketPtr p) {
  const std::uint64_t id = p->flow_id;
  accept_data(*p);
  auto ack = make_control<AckPacket>(p->src, kWinAck);
  ack->flow_id = id;
  ack->acked_seq = p->seq;
  const net::FlowRxState* st = find_rx_state(id);
  ack->cumulative_ack = st != nullptr ? st->first_missing() : 0;
  ack->ecn_echo = p->ecn_ce;
  if (p->collect_int) {
    ack->int_echo = std::move(net::packet_cast<net::IntPacket>(*p).int_hops);
  }
  send(std::move(ack));
}

void WindowHost::handle_ack(net::PacketPtr p) {
  auto& ack = net::packet_cast<AckPacket>(*p);
  net::Flow* flow = network().flow(ack.flow_id);
  WFlow* state = find_state<WFlow>(flow, Role::kSender);
  if (state == nullptr) return;
  WFlow& f = *state;

  if (ack.ecn_echo) ++counters_.ecn_echoes;

  // RTT sample.
  auto in_it = f.inflight.find(ack.acked_seq);
  if (in_it != f.inflight.end()) {
    const Time sample = network().sim().now() - in_it->second;
    f.srtt = f.srtt == Time{} ? sample : (f.srtt * 7 + sample) / 8;
    f.inflight.erase(in_it);
  }
  f.acked.insert(ack.acked_seq);
  f.retx.erase(ack.acked_seq);
  f.consecutive_timeouts = 0;

  // Completion: the receiver's cumulative ack reached the end.
  if (ack.cumulative_ack >= flow->seq_count()) {
    release_state(*flow, Role::kSender);
    return;
  }

  // Duplicate-ack loss inference: cum stuck while later packets arrive.
  if (ack.cumulative_ack > f.cum_ack) {
    f.cum_ack = ack.cumulative_ack;
    f.dupacks = 0;
    f.fast_retx_seq = UINT32_MAX;
  } else if (ack.acked_seq > f.cum_ack) {
    ++f.dupacks;
    if (f.dupacks >= kDupackThreshold &&
        f.fast_retx_seq != f.cum_ack && !f.acked.contains(f.cum_ack)) {
      f.fast_retx_seq = f.cum_ack;
      f.retx.insert(f.cum_ack);
      f.inflight.erase(f.cum_ack);
      ++counters_.fast_retransmits;
      on_fast_retransmit(f);
    }
  }

  on_ack_event(f, ack);
  // sa-ok(unit-raw): the congestion window evolves multiplicatively, in doubles
  f.cwnd_bytes = std::max(f.cwnd_bytes, static_cast<double>(mss().raw()));
  try_send(*flow, f);
}

void WindowHost::on_packet(net::PacketPtr p) {
  switch (p->kind) {
    case kWinData:
      handle_data(std::move(p));
      break;
    case kWinAck:
      handle_ack(std::move(p));
      break;
    default:
      LOG_WARN("window host %d: unknown packet kind %d", host_id(), p->kind);
  }
}

}  // namespace dcpim::proto
