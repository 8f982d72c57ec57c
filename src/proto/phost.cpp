#include "proto/phost.h"

#include <algorithm>
#include <limits>

#include "proto/common.h"
#include "util/logging.h"

namespace dcpim::proto {

namespace {
enum PhostKind : int {
  kPhostData = 0,
  kPhostRts,
  kPhostToken,
};

/// Data priorities of short (<= 1 BDP) and long flows.
constexpr std::uint8_t kShortPriority = 1;
constexpr std::uint8_t kLongPriority = 2;
/// The receiver gives up on a sender after this many consecutive expired
/// tokens and deprioritizes the flow for one timeout period.
constexpr int kMaxExpiredBeforeDowngrade = 8;
}  // namespace

PhostHost::PhostHost(net::Network& net, int host_id,
                     const net::PortConfig& nic)
    : net::Host(net, host_id, nic) {}

// ===== sender side ===========================================================

void PhostHost::on_flow_arrival(net::Flow& flow) {
  TxFlow tx;
  tx.flow = &flow;
  tx.packets = flow.seq_count();
  tx_flows_.emplace(flow.id, tx);

  auto rts = make_control<SizedNotifyPacket>(flow.dst, kPhostRts);
  rts->flow_id = flow.id;
  rts->flow_size = flow.size;
  send(std::move(rts));
  ++counters_.rts_sent;
  arm_rts_retry(flow.id, 0);

  // Free tokens: the first BDP is transmitted immediately, unscheduled.
  const auto free_pkts = static_cast<std::uint32_t>(std::max<std::int64_t>(
      1, network().bdp() / net::kMtuPayload));
  const std::uint32_t burst = std::min(tx.packets, free_pkts);
  const bool is_short = flow.size <= network().bdp();
  for (std::uint32_t seq = 0; seq < burst; ++seq) {
    send(make_data_packet(
        flow, {.seq = seq,
               .priority = is_short ? kShortPriority : kLongPriority,
               .unscheduled = true}));
    ++counters_.free_tokens_spent;
    ++counters_.data_sent;
  }
}

void PhostHost::arm_rts_retry(std::uint64_t flow_id, int attempt) {
  // Control packets are near-lossless, but a dropped RTS would orphan the
  // flow (the receiver grants nothing it does not know about): retry on a
  // coarse timer until the flow finishes.
  if (attempt >= 50) return;
  network().sim().schedule_after(
      token_expiry() * 4, [this, flow_id, attempt]() {
        auto it = tx_flows_.find(flow_id);
        if (it == tx_flows_.end() || it->second.flow->finished()) return;
        auto rts = make_control<SizedNotifyPacket>(it->second.flow->dst,
                                                   kPhostRts);
        rts->flow_id = flow_id;
        rts->flow_size = it->second.flow->size;
        send(std::move(rts));
        ++counters_.rts_sent;
        arm_rts_retry(flow_id, attempt + 1);
      });
}

void PhostHost::handle_token(const net::Packet& p) {
  const auto& tok = net::packet_cast<GrantTokenPacket>(p);
  auto it = tx_flows_.find(p.flow_id);
  if (it == tx_flows_.end()) return;
  TxFlow& tx = it->second;
  if (tx.flow->finished() || tok.data_seq >= tx.packets) return;
  token_queue_.push_back(
      PendingToken{p.flow_id, tok.data_seq, tok.data_priority});
  if (!sender_pacer_running_) {
    sender_pacer_running_ = true;
    sender_pacer_tick();
  }
}

void PhostHost::sender_pacer_tick() {
  while (!token_queue_.empty()) {
    const PendingToken t = token_queue_.front();
    auto it = tx_flows_.find(t.flow_id);
    if (it == tx_flows_.end() || it->second.flow->finished()) {
      token_queue_.pop_front();
      continue;
    }
    token_queue_.pop_front();
    send(make_data_packet(*it->second.flow,
                          {.seq = t.seq, .priority = t.priority}));
    ++counters_.data_sent;
    network().sim().schedule_after(mtu_tx_time(),
                                   [this]() { sender_pacer_tick(); });
    return;
  }
  sender_pacer_running_ = false;
}

// ===== receiver side =========================================================

PhostHost::RxFlow* PhostHost::ensure_rx(std::uint64_t flow_id) {
  auto it = rx_flows_.find(flow_id);
  if (it != rx_flows_.end()) return &it->second;
  net::Flow* flow = network().flow(flow_id);
  if (flow == nullptr || flow->finished()) return nullptr;
  RxFlow rx;
  rx.flow = flow;
  rx.packets = flow->seq_count();
  rx.free_packets = std::min<std::uint32_t>(
      rx.packets, static_cast<std::uint32_t>(std::max<std::int64_t>(
                      1, network().bdp() / net::kMtuPayload)));
  rx.next_new_seq = rx.free_packets;
  rx.created_at = network().sim().now();
  it = rx_flows_.emplace(flow_id, std::move(rx)).first;
  if (!pacer_running_) {
    pacer_running_ = true;
    receiver_tick();
  }
  return &it->second;
}

void PhostHost::handle_data(net::PacketPtr p) {
  const std::uint64_t id = p->flow_id;
  const std::uint32_t seq = p->seq;
  accept_data(*p);
  RxFlow* rx = ensure_rx(id);
  if (rx == nullptr) {
    rx_flows_.erase(id);
    return;
  }
  rx->outstanding.erase(seq);
  rx->readmit.erase(seq);
  rx->consecutive_expired = 0;
  if (rx->flow->finished()) rx_flows_.erase(id);
}

void PhostHost::expire_stale(RxFlow& rx) {
  const TimePoint now = network().sim().now();
  // Unscheduled (free-token) packets that never arrived are re-granted like
  // any other loss once the initial burst has clearly landed or died.
  if (!rx.free_burst_checked &&
      now - rx.created_at > token_expiry()) {
    rx.free_burst_checked = true;
    const net::FlowRxState* st = find_rx_state(rx.flow->id);
    for (std::uint32_t seq = 0; seq < rx.free_packets; ++seq) {
      if ((st == nullptr || !st->has(seq)) &&
          rx.outstanding.count(seq) == 0) {
        rx.readmit.insert(seq);
      }
    }
  }
  std::erase_if(rx.outstanding, [&](const auto& entry) {
    if (now - entry.second <= token_expiry()) return false;
    rx.readmit.insert(entry.first);
    ++counters_.tokens_expired;
    ++rx.consecutive_expired;
    return true;
  });
  if (rx.consecutive_expired >= kMaxExpiredBeforeDowngrade) {
    // The sender is busy elsewhere: deprioritize so other flows progress.
    rx.downgraded_until = now + token_expiry();
    rx.consecutive_expired = 0;
    ++counters_.downgrades;
  }
}

PhostHost::RxFlow* PhostHost::pick_flow() {
  const TimePoint now = network().sim().now();
  RxFlow* best = nullptr;
  Bytes best_rem = Bytes::max();
  bool best_downgraded = true;
  const auto window = static_cast<std::size_t>(std::max<std::int64_t>(
      1, network().bdp() / net::kMtuPayload));
  for (auto& [id, rx] : rx_flows_) {
    if (rx.flow->finished()) continue;
    expire_stale(rx);
    if (rx.outstanding.size() >= window) continue;
    if (rx.readmit.empty() && rx.next_new_seq >= rx.packets) continue;
    const net::FlowRxState* st = find_rx_state(id);
    const Bytes rem =
        rx.flow->size - (st != nullptr ? st->received_bytes() : Bytes{});
    const bool downgraded = rx.downgraded_until > now;
    // Non-downgraded flows always beat downgraded ones; SRPT within class,
    // lowest flow id (the first visited) on equal remaining.
    if (best == nullptr || (best_downgraded && !downgraded) ||
        (best_downgraded == downgraded && rem < best_rem)) {
      best = &rx;
      best_rem = rem;
      best_downgraded = downgraded;
    }
  }
  return best;
}

void PhostHost::receiver_tick() {
  if (rx_flows_.empty()) {
    pacer_running_ = false;
    return;
  }
  RxFlow* rx = pick_flow();
  if (rx != nullptr) {
    std::uint32_t seq;
    if (!rx->readmit.empty()) {
      seq = *rx->readmit.begin();
      rx->readmit.erase(rx->readmit.begin());
    } else {
      seq = rx->next_new_seq++;
    }
    rx->outstanding.emplace(seq, network().sim().now());
    auto tok = make_control<GrantTokenPacket>(rx->flow->src, kPhostToken);
    tok->flow_id = rx->flow->id;
    tok->data_seq = seq;
    tok->data_priority =
        rx->flow->size <= network().bdp() ? kShortPriority : kLongPriority;
    send(std::move(tok));
    ++counters_.tokens_sent;
  }
  network().sim().schedule_after(mtu_tx_time(), [this]() { receiver_tick(); });
}

// ===== dispatch ==============================================================

void PhostHost::on_packet(net::PacketPtr p) {
  switch (p->kind) {
    case kPhostData:
      handle_data(std::move(p));
      break;
    case kPhostRts:
      ensure_rx(p->flow_id);
      break;
    case kPhostToken:
      handle_token(*p);
      break;
    default:
      LOG_WARN("phost host %d: unknown packet kind %d", host_id(), p->kind);
  }
}

net::Topology::HostFactory phost_host_factory() {
  return [](net::Network& net, int host_id,
            const net::PortConfig& nic) -> net::Host* {
    return net.add_device<PhostHost>(host_id, nic);
  };
}

}  // namespace dcpim::proto
