#include "proto/ndp.h"

#include <algorithm>

#include "proto/common.h"
#include "util/logging.h"

namespace dcpim::proto {

namespace {
enum NdpKind : int {
  kNdpData = 0,
  kNdpPull,
  kNdpNack,
  kNdpAck,
};

/// Strict-priority queue of every data packet.
constexpr std::uint8_t kDataPriority = 2;
/// Fallback-timer resends per flow before the sender gives up.
constexpr int kMaxRtoRetx = 100;
}  // namespace

NdpHost::NdpHost(net::Network& net, int host_id)
    : net::Host(net, host_id) {}

void NdpHost::on_flow_arrival(net::Flow& flow) {
  TxFlow& tx = create_state<TxFlow>(flow, Role::kSender);
  tx.acked.reset(flow.seq_count());
  tx.last_progress = network().sim().now();

  const auto window = static_cast<std::uint32_t>(std::max<std::int64_t>(
      1, network().bdp() / net::kMtuPayload));
  const std::uint32_t burst = std::min(flow.seq_count(), window);
  for (std::uint32_t seq = 0; seq < burst; ++seq) {
    send(make_data_packet(flow, {.seq = seq, .priority = kDataPriority}));
    ++counters_.initial_window_sent;
  }
  tx.next_new_seq = burst;
  arm_rto(flow.id);
}

void NdpHost::send_one(const net::Flow& flow, TxFlow& tx) {
  std::uint32_t seq;
  if (!tx.retx.empty()) {
    seq = *tx.retx.begin();
    tx.retx.erase(tx.retx.begin());
    ++counters_.retransmissions;
  } else {
    while (tx.next_new_seq < flow.seq_count() &&
           tx.acked.contains(tx.next_new_seq)) {
      ++tx.next_new_seq;
    }
    if (tx.next_new_seq >= flow.seq_count()) return;  // nothing left
    seq = tx.next_new_seq++;
  }
  send(make_data_packet(flow, {.seq = seq, .priority = kDataPriority}));
}

void NdpHost::handle_pull(const net::Packet& p) {
  net::Flow* flow = network().flow(p.flow_id);
  TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
  if (tx != nullptr) send_one(*flow, *tx);
}

void NdpHost::handle_nack(const net::Packet& p) {
  const auto& nack = net::packet_cast<GrantTokenPacket>(p);
  TxFlow* tx = find_state<TxFlow>(p.flow_id, Role::kSender);
  if (tx != nullptr && !tx->acked.contains(nack.data_seq)) {
    tx->retx.insert(nack.data_seq);
  }
}

void NdpHost::handle_ack(const net::Packet& p) {
  const auto& ack = net::packet_cast<GrantTokenPacket>(p);
  net::Flow* flow = network().flow(p.flow_id);
  TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
  if (tx == nullptr) return;
  tx->acked.insert(ack.data_seq);
  tx->retx.erase(ack.data_seq);
  tx->last_progress = network().sim().now();
  if (tx->acked.size() == flow->seq_count()) {
    release_state(*flow, Role::kSender);
  }
}

void NdpHost::arm_rto(std::uint64_t flow_id) {
  network().sim().schedule_after(fallback_timeout(), [this, flow_id]() {
    net::Flow* flow = network().flow(flow_id);
    TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
    if (tx == nullptr || tx->rto_count >= kMaxRtoRetx) return;
    if (network().sim().now() - tx->last_progress >= fallback_timeout()) {
      // Total stall: blindly resend the first unacked packet to restart the
      // arrival->pull feedback loop.
      ++tx->rto_count;
      ++counters_.rto_fires;
      for (std::uint32_t seq = 0; seq < flow->seq_count(); ++seq) {
        if (!tx->acked.contains(seq)) {
          send(make_data_packet(*flow,
                                {.seq = seq, .priority = kDataPriority}));
          break;
        }
      }
    }
    arm_rto(flow_id);
  });
}

// ===== receiver side =========================================================

void NdpHost::handle_data_or_header(net::PacketPtr p) {
  const std::uint64_t id = p->flow_id;
  const std::uint32_t seq = p->seq;
  const bool trimmed = p->trimmed;

  const net::Flow* flow = network().flow(id);
  if (flow == nullptr) return;

  if (trimmed) {
    ++counters_.trimmed_seen;
    auto nack = make_control<GrantTokenPacket>(p->src, kNdpNack);
    nack->flow_id = id;
    nack->data_seq = seq;
    send(std::move(nack));
    ++counters_.nacks_sent;
    if (!flow->finished()) enqueue_pull(id, /*urgent=*/true);
    return;
  }

  accept_data(*p);
  auto ack = make_control<GrantTokenPacket>(p->src, kNdpAck);
  ack->flow_id = id;
  ack->data_seq = seq;
  send(std::move(ack));

  if (!flow->finished()) enqueue_pull(id, /*urgent=*/false);
}

void NdpHost::enqueue_pull(std::uint64_t flow_id, bool urgent) {
  if (urgent) {
    pull_queue_.push_front(flow_id);
  } else {
    pull_queue_.push_back(flow_id);
  }
  if (!pull_pacer_running_) {
    pull_pacer_running_ = true;
    pull_tick();
  }
}

void NdpHost::pull_tick() {
  // Drop pulls for flows that completed in the meantime.
  while (!pull_queue_.empty()) {
    const std::uint64_t id = pull_queue_.front();
    const net::Flow* flow = network().flow(id);
    if (flow == nullptr || flow->finished()) {
      pull_queue_.pop_front();
      continue;
    }
    break;
  }
  if (pull_queue_.empty()) {
    pull_pacer_running_ = false;
    return;
  }
  const std::uint64_t id = pull_queue_.front();
  pull_queue_.pop_front();
  const net::Flow* flow = network().flow(id);
  auto pull = make_control<net::Packet>(flow->src, kNdpPull);
  pull->flow_id = id;
  send(std::move(pull));
  ++counters_.pulls_sent;
  network().sim().schedule_after(mtu_tx_time(), [this]() { pull_tick(); });
}

// ===== dispatch ==============================================================

void NdpHost::on_packet(net::PacketPtr p) {
  if (p->kind == kNdpData || p->trimmed) {
    handle_data_or_header(std::move(p));
    return;
  }
  // sa-ok(packet-switch): kNdpData is consumed by the trimmed-header guard
  // above; the default only catches corrupted kinds and warns.
  switch (p->kind) {
    case kNdpPull:
      handle_pull(*p);
      break;
    case kNdpNack:
      handle_nack(*p);
      break;
    case kNdpAck:
      handle_ack(*p);
      break;
    default:
      LOG_WARN("ndp host %d: unknown packet kind %d", host_id(), p->kind);
  }
}

net::Topology::HostFactory ndp_host_factory() {
  return [](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<NdpHost>(host_id);
  };
}

void ndp_port_customize(net::PortConfig& cfg) {
  cfg.trim_enable = true;
  cfg.trim_queue_cap = net::kMtuWire * 8;  // Table 1: 8-packet data queues
}

}  // namespace dcpim::proto
