#include "proto/homa.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>

#include "proto/common.h"
#include "util/logging.h"

namespace dcpim::proto {

namespace {
enum HomaKind : int {
  kHomaData = 0,
  kHomaNotify,
  kHomaGrant,
  kHomaProbe,
};
}  // namespace

HomaHost::HomaHost(net::Network& net, int host_id, const net::PortConfig& nic,
                   const HomaConfig& cfg)
    : net::Host(net, host_id, nic), cfg_(cfg) {}

std::uint8_t HomaHost::unsched_priority_for(Bytes size) const {
  if (!cfg_.unsched_cutoffs.empty()) {
    for (std::size_t i = 0; i < cfg_.unsched_cutoffs.size(); ++i) {
      if (size <= cfg_.unsched_cutoffs[i]) {
        return static_cast<std::uint8_t>(
            std::min<std::size_t>(1 + i, net::kNumPriorities - 1));
      }
    }
    return static_cast<std::uint8_t>(std::min<std::size_t>(
        1 + cfg_.unsched_cutoffs.size(), net::kNumPriorities - 1));
  }
  // Geometric defaults on the BDP scale (Homa computes these from the
  // workload CDF; the geometric ladder preserves smaller==higher-priority).
  const Bytes bdp = cfg_.bdp_bytes;
  if (size <= bdp / 8) return 1;
  if (size <= bdp / 2) return 2;
  if (size <= bdp * 2) return 3;
  return 4;
}

std::uint32_t HomaHost::window_packets() const {
  return static_cast<std::uint32_t>(std::max<std::int64_t>(
      1, cfg_.bdp_bytes / network().config().mtu_payload));
}

// ===== sender side ===========================================================

void HomaHost::on_flow_arrival(net::Flow& flow) {
  TxFlow tx;
  tx.flow = &flow;
  tx.packets = static_cast<std::uint32_t>(
      // sa-ok(unit-raw): data seq numbers are raw uint32 indices on the wire
      flow.packet_count(network().config().mtu_payload).raw());
  tx.unsched_packets = std::min<std::uint32_t>(tx.packets, window_packets());
  tx_flows_.emplace(flow.id, tx);

  auto note = make_control<SizedNotifyPacket>(flow.dst, kHomaNotify);
  note->flow_id = flow.id;
  note->flow_size = flow.size;
  send(std::move(note));

  const std::uint8_t prio = unsched_priority_for(flow.size);
  for (std::uint32_t seq = 0; seq < tx.unsched_packets; ++seq) {
    send(make_data_packet(flow, {.seq = seq, .priority = prio, .unscheduled = true}));
    ++counters_.unsched_sent;
  }

  if (cfg_.aeolus) {
    // Aeolus probe: fired one control-RTT later so it lands after the
    // unscheduled burst; the receiver then re-admits whatever was dropped
    // through the scheduled path.
    const std::uint64_t id = flow.id;
    const int dst = flow.dst;
    network().sim().schedule_after(cfg_.control_rtt, [this, id, dst]() {
      auto probe = make_control<net::Packet>(dst, kHomaProbe);
      probe->flow_id = id;
      send(std::move(probe));
      ++counters_.probes_sent;
    });
  }

  // If the notify AND the whole unscheduled burst die (a blackholed spine,
  // a hostile loss window), the receiver never learns the flow exists and
  // nothing on its side can retry — re-announce until it engages. Same
  // first-contact insurance as pHost's arm_rts_retry.
  const std::uint64_t id = flow.id;
  network().sim().schedule_after(cfg_.effective_resend(),
                                 [this, id]() { notify_check(id); });
}

void HomaHost::notify_check(std::uint64_t flow_id) {
  auto it = tx_flows_.find(flow_id);
  if (it == tx_flows_.end()) return;
  const TxFlow& tx = it->second;
  // A grant proves the receiver knows the flow; from there its own resend
  // machinery owns recovery. (Pure-unscheduled flows never see grants, so
  // they keep re-announcing until the flow completes.)
  if (tx.flow->finished() || tx.grant_seen) return;
  auto note = make_control<SizedNotifyPacket>(tx.flow->dst, kHomaNotify);
  note->flow_id = flow_id;
  note->flow_size = tx.flow->size;
  send(std::move(note));
  ++counters_.notify_retx;
  network().sim().schedule_after(cfg_.effective_resend(),
                                 [this, flow_id]() { notify_check(flow_id); });
}

void HomaHost::handle_grant(const net::Packet& p) {
  const auto& grant = net::packet_cast<GrantTokenPacket>(p);
  auto it = tx_flows_.find(p.flow_id);
  if (it == tx_flows_.end()) return;
  TxFlow& tx = it->second;
  tx.grant_seen = true;
  if (tx.flow->finished() || grant.data_seq >= tx.packets) return;
  grant_queue_.push_back(
      PendingGrant{p.flow_id, grant.data_seq, grant.data_priority});
  if (!sender_pacer_running_) {
    sender_pacer_running_ = true;
    sender_pacer_tick();
  }
}

void HomaHost::sender_pacer_tick() {
  while (!grant_queue_.empty()) {
    const PendingGrant g = grant_queue_.front();
    auto it = tx_flows_.find(g.flow_id);
    if (it == tx_flows_.end() || it->second.flow->finished()) {
      grant_queue_.pop_front();
      continue;
    }
    grant_queue_.pop_front();
    send(make_data_packet(*it->second.flow,
                          {.seq = g.seq, .priority = g.priority}));
    ++counters_.sched_sent;
    network().sim().schedule_after(mtu_tx_time(),
                                   [this]() { sender_pacer_tick(); });
    return;
  }
  sender_pacer_running_ = false;
}

// ===== receiver side =========================================================

HomaHost::RxFlow* HomaHost::ensure_rx_flow(std::uint64_t flow_id) {
  auto it = rx_flows_.find(flow_id);
  if (it != rx_flows_.end()) return &it->second;
  net::Flow* flow = network().flow(flow_id);
  if (flow == nullptr || flow->finished()) return nullptr;

  RxFlow rx;
  rx.flow = flow;
  rx.packets = static_cast<std::uint32_t>(
      // sa-ok(unit-raw): data seq numbers are raw uint32 indices on the wire
      flow->packet_count(network().config().mtu_payload).raw());
  rx.unsched_packets = std::min<std::uint32_t>(rx.packets, window_packets());
  rx.next_new_seq = rx.unsched_packets;
  it = rx_flows_.emplace(flow_id, std::move(rx)).first;

  if (it->second.packets > it->second.unsched_packets) {
    sched_candidates_.insert(flow_id);
    recompute_active();
  }
  // Plain Homa relies on this (slow) resend timer for all loss recovery;
  // Aeolus keeps it for scheduled losses.
  network().sim().schedule_after(cfg_.effective_resend(), [this, flow_id]() {
    resend_check(flow_id);
  });
  return &it->second;
}

void HomaHost::handle_data(net::PacketPtr p) {
  const std::uint64_t id = p->flow_id;
  const std::uint32_t seq = p->seq;
  accept_data(*p);
  RxFlow* rx = ensure_rx_flow(id);
  if (rx == nullptr) {
    // Completed by this packet (or unknown): drop scheduling state.
    auto it = rx_flows_.find(id);
    if (it != rx_flows_.end() && it->second.flow->finished()) {
      rx_flows_.erase(it);
      sched_candidates_.erase(id);
      if (active_.erase(id) > 0) recompute_active();
    }
    return;
  }
  rx->outstanding.erase(seq);
  rx->readmit.erase(seq);  // a straggler made a pending re-grant moot
  if (rx->flow->finished()) {
    rx_flows_.erase(id);
    sched_candidates_.erase(id);
    if (active_.erase(id) > 0) recompute_active();
  }
}

void HomaHost::handle_probe(const net::Packet& p) {
  auto it = rx_flows_.find(p.flow_id);
  RxFlow* rx = it != rx_flows_.end() ? &it->second : ensure_rx_flow(p.flow_id);
  if (rx == nullptr) return;
  // Re-admit missing unscheduled packets through the scheduled path.
  const net::FlowRxState* st = find_rx_state(p.flow_id);
  bool added = false;
  for (std::uint32_t seq = 0; seq < rx->unsched_packets; ++seq) {
    if ((st == nullptr || !st->has(seq)) &&
        rx->outstanding.count(seq) == 0) {
      added |= rx->readmit.insert(seq).second;
    }
  }
  if (added) {
    sched_candidates_.insert(p.flow_id);
    recompute_active();
  }
}

void HomaHost::resend_check(std::uint64_t flow_id) {
  auto it = rx_flows_.find(flow_id);
  if (it == rx_flows_.end()) return;
  RxFlow& rx = it->second;
  if (rx.flow->finished()) return;

  const net::FlowRxState* st = find_rx_state(flow_id);
  const Bytes received = st != nullptr ? st->received_bytes() : Bytes{};
  if (received == rx.last_progress_bytes &&
      rx.resends < cfg_.max_resends) {
    // No progress for a full resend interval: re-admit everything missing
    // that is not already queued.
    ++rx.resends;
    ++counters_.resend_requests;
    const TimePoint now = network().sim().now();
    std::erase_if(rx.outstanding, [&](const auto& entry) {
      if (now - entry.second <= cfg_.effective_resend()) return false;
      rx.readmit.insert(entry.first);
      return true;
    });
    for (std::uint32_t seq = 0; seq < rx.unsched_packets; ++seq) {
      if ((st == nullptr || !st->has(seq)) && rx.outstanding.count(seq) == 0) {
        rx.readmit.insert(seq);
      }
    }
    if (!rx.readmit.empty()) {
      sched_candidates_.insert(flow_id);
      recompute_active();
    }
  }
  rx.last_progress_bytes = received;
  network().sim().schedule_after(cfg_.effective_resend(), [this, flow_id]() {
    resend_check(flow_id);
  });
}

void HomaHost::recompute_active() {
  // Keep the `overcommit` shortest-remaining candidates granted. Ties break
  // on a per-host stable hash: sorting by flow id would make every receiver
  // of a uniform workload grant the same senders (herding).
  const std::uint64_t salt =
      0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(host_id() + 1);
  auto tie_break = [salt](std::uint64_t id) {
    std::uint64_t h = (id + 1) * 0xBF58476D1CE4E5B9ull ^ salt;
    h ^= h >> 31;
    return h;
  };
  std::vector<std::tuple<Bytes, std::uint64_t, std::uint64_t>> order;
  for (std::uint64_t id : sched_candidates_) {
    auto it = rx_flows_.find(id);
    if (it == rx_flows_.end() || it->second.flow->finished()) continue;
    const net::FlowRxState* st = find_rx_state(id);
    const Bytes received = st != nullptr ? st->received_bytes() : Bytes{};
    order.emplace_back(it->second.flow->size - received, tie_break(id), id);
  }
  std::sort(order.begin(), order.end());
  active_.clear();
  for (std::size_t i = 0;
       i < order.size() && i < static_cast<std::size_t>(cfg_.overcommit);
       ++i) {
    const std::uint64_t id = std::get<2>(order[i]);
    active_.insert(id);
    RxFlow& rx = rx_flows_.at(id);
    if (!rx.pacer_running) {
      rx.pacer_running = true;
      grant_tick(id);
    }
  }
}

void HomaHost::grant_tick(std::uint64_t flow_id) {
  auto it = rx_flows_.find(flow_id);
  if (it == rx_flows_.end() || active_.count(flow_id) == 0) {
    if (it != rx_flows_.end()) it->second.pacer_running = false;
    return;
  }
  RxFlow& rx = it->second;
  if (rx.flow->finished()) {
    rx.pacer_running = false;
    return;
  }
  issue_grant(rx);
  network().sim().schedule_after(mtu_tx_time(),
                                 [this, flow_id]() { grant_tick(flow_id); });
}

bool HomaHost::issue_grant(RxFlow& rx) {
  if (rx.outstanding.size() >= window_packets()) return false;
  const net::FlowRxState* st = find_rx_state(rx.flow->id);
  std::uint32_t seq;
  if (!rx.readmit.empty()) {
    seq = *rx.readmit.begin();
    rx.readmit.erase(rx.readmit.begin());
  } else {
    // Skip scheduled seqs that already arrived (shouldn't happen, cheap).
    while (rx.next_new_seq < rx.packets && st != nullptr &&
           st->has(rx.next_new_seq)) {
      ++rx.next_new_seq;
    }
    if (rx.next_new_seq >= rx.packets) return false;
    seq = rx.next_new_seq++;
  }
  rx.outstanding.emplace(seq, network().sim().now());

  auto grant = make_control<GrantTokenPacket>(rx.flow->src, kHomaGrant);
  grant->flow_id = rx.flow->id;
  grant->data_seq = seq;
  grant->data_priority = cfg_.scheduled_priority;
  send(std::move(grant));
  ++counters_.grants_sent;
  return true;
}

// ===== dispatch ==============================================================

void HomaHost::on_packet(net::PacketPtr p) {
  switch (p->kind) {
    case kHomaData:
      handle_data(std::move(p));
      break;
    case kHomaNotify:
      ensure_rx_flow(p->flow_id);
      break;
    case kHomaGrant:
      handle_grant(*p);
      break;
    case kHomaProbe:
      handle_probe(*p);
      break;
    default:
      LOG_WARN("homa host %d: unknown packet kind %d", host_id(), p->kind);
  }
}

net::Topology::HostFactory homa_host_factory(const HomaConfig& cfg) {
  return [&cfg](net::Network& net, int host_id,
                const net::PortConfig& nic) -> net::Host* {
    return net.add_device<HomaHost>(host_id, nic, cfg);
  };
}

}  // namespace dcpim::proto
