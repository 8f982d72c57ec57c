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

PhostHost::PhostHost(net::Network& net, int host_id)
    : net::Host(net, host_id) {}

// ===== sender side ===========================================================

void PhostHost::on_flow_arrival(net::Flow& flow) {
  auto rts = make_control<SizedNotifyPacket>(flow.dst, kPhostRts);
  rts->flow_id = flow.id;
  rts->flow_size = flow.size;
  send(std::move(rts));
  ++counters_.rts_sent;
  arm_rts_retry(flow.id, 0);

  // Free tokens: the first BDP is transmitted immediately, unscheduled.
  const auto free_pkts = static_cast<std::uint32_t>(std::max<std::int64_t>(
      1, network().bdp() / net::kMtuPayload));
  const std::uint32_t burst = std::min(flow.seq_count(), free_pkts);
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
        const net::Flow* flow = network().flow(flow_id);
        if (flow->finished()) return;
        auto rts = make_control<SizedNotifyPacket>(flow->dst, kPhostRts);
        rts->flow_id = flow_id;
        rts->flow_size = flow->size;
        send(std::move(rts));
        ++counters_.rts_sent;
        arm_rts_retry(flow_id, attempt + 1);
      });
}

void PhostHost::handle_token(const net::Packet& p) {
  const auto& tok = net::packet_cast<GrantTokenPacket>(p);
  const net::Flow* flow = network().flow(p.flow_id);
  if (flow == nullptr || flow->src != host_id() || flow->finished() ||
      tok.data_seq >= flow->seq_count()) {
    return;
  }
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
    const net::Flow* flow = network().flow(t.flow_id);
    token_queue_.pop_front();
    if (flow->finished()) continue;
    send(make_data_packet(*flow, {.seq = t.seq, .priority = t.priority}));
    ++counters_.data_sent;
    network().sim().schedule_after(mtu_tx_time(),
                                   [this]() { sender_pacer_tick(); });
    return;
  }
  sender_pacer_running_ = false;
}

// ===== receiver side =========================================================

PhostHost::RxFlow* PhostHost::ensure_rx(std::uint64_t flow_id) {
  net::Flow* flow = network().flow(flow_id);
  if (RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver)) return rx;
  if (flow == nullptr || flow->finished()) return nullptr;
  RxFlow& rx = create_state<RxFlow>(*flow, Role::kReceiver);
  // Flows arrive in id order, so this is almost always an append.
  rx_ids_.insert(std::upper_bound(rx_ids_.begin(), rx_ids_.end(), flow_id),
                 flow_id);
  rx.free_packets = std::min<std::uint32_t>(
      flow->seq_count(), static_cast<std::uint32_t>(std::max<std::int64_t>(
                             1, network().bdp() / net::kMtuPayload)));
  rx.next_new_seq = rx.free_packets;
  rx.created_at = network().sim().now();
  if (!pacer_running_) {
    pacer_running_ = true;
    receiver_tick();
  }
  return &rx;
}

void PhostHost::handle_data(net::PacketPtr p) {
  const std::uint32_t seq = p->seq;
  accept_data(*p);
  RxFlow* rx = ensure_rx(p->flow_id);
  if (rx == nullptr) return;
  rx->outstanding.erase(seq);
  rx->readmit.erase(seq);
  rx->consecutive_expired = 0;
  net::Flow& flow = *network().flow(p->flow_id);
  if (flow.finished()) {
    release_state(flow, Role::kReceiver);
    rx_ids_.erase(std::lower_bound(rx_ids_.begin(), rx_ids_.end(), flow.id));
  }
}

void PhostHost::expire_stale(const net::Flow& flow, RxFlow& rx) {
  const TimePoint now = network().sim().now();
  // Unscheduled (free-token) packets that never arrived are re-granted like
  // any other loss once the initial burst has clearly landed or died.
  if (!rx.free_burst_checked &&
      now - rx.created_at > token_expiry()) {
    rx.free_burst_checked = true;
    const net::FlowRxState* st = find_rx_state(flow.id);
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

net::Flow* PhostHost::pick_flow() {
  const TimePoint now = network().sim().now();
  net::Flow* best = nullptr;
  Bytes best_rem = Bytes::max();
  bool best_downgraded = true;
  const auto window = static_cast<std::size_t>(std::max<std::int64_t>(
      1, network().bdp() / net::kMtuPayload));
  for (std::uint64_t id : rx_ids_) {
    net::Flow* flow = network().flow(id);
    if (flow->finished()) continue;
    RxFlow& rx = *find_state<RxFlow>(flow, Role::kReceiver);
    expire_stale(*flow, rx);
    if (rx.outstanding.size() >= window) continue;
    if (rx.readmit.empty() && rx.next_new_seq >= flow->seq_count()) continue;
    const net::FlowRxState* st = find_rx_state(id);
    const Bytes rem =
        flow->size - (st != nullptr ? st->received_bytes() : Bytes{});
    const bool downgraded = rx.downgraded_until > now;
    // Non-downgraded flows always beat downgraded ones; SRPT within class,
    // lowest flow id (the first visited) on equal remaining.
    if (best == nullptr || (best_downgraded && !downgraded) ||
        (best_downgraded == downgraded && rem < best_rem)) {
      best = flow;
      best_rem = rem;
      best_downgraded = downgraded;
    }
  }
  return best;
}

void PhostHost::receiver_tick() {
  if (rx_ids_.empty()) {
    pacer_running_ = false;
    return;
  }
  if (net::Flow* flow = pick_flow()) {
    RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver);
    std::uint32_t seq;
    if (!rx->readmit.empty()) {
      seq = *rx->readmit.begin();
      rx->readmit.erase(rx->readmit.begin());
    } else {
      seq = rx->next_new_seq++;
    }
    rx->outstanding.emplace(seq, network().sim().now());
    auto tok = make_control<GrantTokenPacket>(flow->src, kPhostToken);
    tok->flow_id = flow->id;
    tok->data_seq = seq;
    tok->data_priority =
        flow->size <= network().bdp() ? kShortPriority : kLongPriority;
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
  return [](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<PhostHost>(host_id);
  };
}

}  // namespace dcpim::proto
