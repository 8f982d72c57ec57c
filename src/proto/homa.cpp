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

/// Scheduled flows granted concurrently per receiver.
constexpr int kOvercommit = 2;
/// Data priority of scheduled (granted) packets.
constexpr std::uint8_t kScheduledPriority = 5;
/// Resend requests per flow before the receiver gives up.
constexpr int kMaxResends = 100;
}  // namespace

HomaHost::HomaHost(net::Network& net, int host_id, bool aeolus)
    : net::Host(net, host_id), aeolus_(aeolus) {}

std::uint8_t HomaHost::unsched_priority_for(Bytes size) const {
  // Geometric cutoffs on the BDP scale (Homa computes these from the
  // workload CDF; the geometric ladder preserves smaller==higher-priority).
  const Bytes bdp = network().bdp();
  if (size <= bdp / 8) return 1;
  if (size <= bdp / 2) return 2;
  if (size <= bdp * 2) return 3;
  return 4;
}

std::uint32_t HomaHost::window_packets() const {
  return static_cast<std::uint32_t>(std::max<std::int64_t>(
      1, network().bdp() / net::kMtuPayload));
}

std::uint32_t HomaHost::unsched_packets(const net::Flow& flow) const {
  return std::min(flow.seq_count(), window_packets());
}

// ===== sender side ===========================================================

void HomaHost::on_flow_arrival(net::Flow& flow) {
  create_state<TxFlow>(flow, Role::kSender);

  auto note = make_control<SizedNotifyPacket>(flow.dst, kHomaNotify);
  note->flow_id = flow.id;
  note->flow_size = flow.size;
  send(std::move(note));

  const std::uint8_t prio = unsched_priority_for(flow.size);
  for (std::uint32_t seq = 0; seq < unsched_packets(flow); ++seq) {
    send(make_data_packet(flow, {.seq = seq, .priority = prio, .unscheduled = true}));
    ++counters_.unsched_sent;
  }

  if (aeolus_) {
    // Aeolus probe: fired one control-RTT later so it lands after the
    // unscheduled burst; the receiver then re-admits whatever was dropped
    // through the scheduled path.
    const std::uint64_t id = flow.id;
    const int dst = flow.dst;
    network().sim().schedule_after(
        network().max_control_rtt(), [this, id, dst]() {
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
  network().sim().schedule_after(resend_period(),
                                 [this, id]() { notify_check(id); });
}

void HomaHost::notify_check(std::uint64_t flow_id) {
  net::Flow* flow = network().flow(flow_id);
  const TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
  if (tx == nullptr) return;
  // A grant proves the receiver knows the flow; from there its own resend
  // machinery owns recovery. (Pure-unscheduled flows never see grants, so
  // they keep re-announcing until the flow completes.)
  if (flow->finished() || tx->grant_seen) {
    release_state(*flow, Role::kSender);
    return;
  }
  auto note = make_control<SizedNotifyPacket>(flow->dst, kHomaNotify);
  note->flow_id = flow_id;
  note->flow_size = flow->size;
  send(std::move(note));
  ++counters_.notify_retx;
  network().sim().schedule_after(resend_period(),
                                 [this, flow_id]() { notify_check(flow_id); });
}

void HomaHost::handle_grant(const net::Packet& p) {
  const auto& grant = net::packet_cast<GrantTokenPacket>(p);
  net::Flow* flow = network().flow(p.flow_id);
  if (flow == nullptr || flow->src != host_id()) return;
  // Null once notify_check has stopped, which makes grant_seen moot.
  if (TxFlow* tx = find_state<TxFlow>(flow, Role::kSender)) {
    tx->grant_seen = true;
  }
  if (flow->finished() || grant.data_seq >= flow->seq_count()) return;
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
    const net::Flow* flow = network().flow(g.flow_id);
    grant_queue_.pop_front();
    if (flow->finished()) continue;
    send(make_data_packet(*flow, {.seq = g.seq, .priority = g.priority}));
    ++counters_.sched_sent;
    network().sim().schedule_after(mtu_tx_time(),
                                   [this]() { sender_pacer_tick(); });
    return;
  }
  sender_pacer_running_ = false;
}

// ===== receiver side =========================================================

HomaHost::RxFlow* HomaHost::ensure_rx_flow(std::uint64_t flow_id) {
  net::Flow* flow = network().flow(flow_id);
  if (RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver)) return rx;
  if (flow == nullptr || flow->finished()) return nullptr;

  RxFlow& rx = create_state<RxFlow>(*flow, Role::kReceiver);
  rx.next_new_seq = unsched_packets(*flow);
  if (flow->seq_count() > rx.next_new_seq) {
    sched_candidates_.insert(flow_id);
    recompute_active();
  }
  // Plain Homa relies on this (slow) resend timer for all loss recovery;
  // Aeolus keeps it for scheduled losses.
  network().sim().schedule_after(resend_period(), [this, flow_id]() {
    resend_check(flow_id);
  });
  return &rx;
}

void HomaHost::handle_data(net::PacketPtr p) {
  const std::uint64_t id = p->flow_id;
  const std::uint32_t seq = p->seq;
  accept_data(*p);
  RxFlow* rx = ensure_rx_flow(id);
  if (rx == nullptr) return;  // completed before any record, or unknown
  rx->outstanding.erase(seq);
  rx->readmit.erase(seq);  // a straggler made a pending re-grant moot
  net::Flow& flow = *network().flow(id);
  if (flow.finished()) {
    release_state(flow, Role::kReceiver);
    sched_candidates_.erase(id);
    if (active_.erase(id) > 0) recompute_active();
  }
}

void HomaHost::handle_probe(const net::Packet& p) {
  RxFlow* rx = ensure_rx_flow(p.flow_id);
  if (rx == nullptr) return;
  // Re-admit missing unscheduled packets through the scheduled path.
  const net::FlowRxState* st = find_rx_state(p.flow_id);
  const std::uint32_t unsched = unsched_packets(*network().flow(p.flow_id));
  bool added = false;
  for (std::uint32_t seq = 0; seq < unsched; ++seq) {
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
  net::Flow* flow = network().flow(flow_id);
  RxFlow* state = find_state<RxFlow>(flow, Role::kReceiver);
  if (state == nullptr || flow->finished()) return;
  RxFlow& rx = *state;

  const net::FlowRxState* st = find_rx_state(flow_id);
  const Bytes received = st != nullptr ? st->received_bytes() : Bytes{};
  if (received == rx.last_progress_bytes &&
      rx.resends < kMaxResends) {
    // No progress for a full resend interval: re-admit everything missing
    // that is not already queued.
    ++rx.resends;
    ++counters_.resend_requests;
    const TimePoint now = network().sim().now();
    std::erase_if(rx.outstanding, [&](const auto& entry) {
      if (now - entry.second <= resend_period()) return false;
      rx.readmit.insert(entry.first);
      return true;
    });
    for (std::uint32_t seq = 0; seq < unsched_packets(*flow); ++seq) {
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
  network().sim().schedule_after(resend_period(), [this, flow_id]() {
    resend_check(flow_id);
  });
}

void HomaHost::recompute_active() {
  // Keep the kOvercommit shortest-remaining candidates granted. Ties break
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
    net::Flow* flow = network().flow(id);
    if (find_state<RxFlow>(flow, Role::kReceiver) == nullptr ||
        flow->finished()) {
      continue;
    }
    const net::FlowRxState* st = find_rx_state(id);
    const Bytes received = st != nullptr ? st->received_bytes() : Bytes{};
    order.emplace_back(flow->size - received, tie_break(id), id);
  }
  std::sort(order.begin(), order.end());
  active_.clear();
  for (std::size_t i = 0;
       i < order.size() && i < static_cast<std::size_t>(kOvercommit);
       ++i) {
    const std::uint64_t id = std::get<2>(order[i]);
    active_.insert(id);
    RxFlow& rx = *find_state<RxFlow>(id, Role::kReceiver);
    if (!rx.pacer_running) {
      rx.pacer_running = true;
      grant_tick(id);
    }
  }
}

void HomaHost::grant_tick(std::uint64_t flow_id) {
  net::Flow* flow = network().flow(flow_id);
  RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver);
  if (rx == nullptr) return;
  if (active_.count(flow_id) == 0 || flow->finished()) {
    rx->pacer_running = false;
    return;
  }
  issue_grant(*flow, *rx);
  network().sim().schedule_after(mtu_tx_time(),
                                 [this, flow_id]() { grant_tick(flow_id); });
}

bool HomaHost::issue_grant(const net::Flow& flow, RxFlow& rx) {
  if (rx.outstanding.size() >= window_packets()) return false;
  const net::FlowRxState* st = find_rx_state(flow.id);
  std::uint32_t seq;
  if (!rx.readmit.empty()) {
    seq = *rx.readmit.begin();
    rx.readmit.erase(rx.readmit.begin());
  } else {
    // Skip scheduled seqs that already arrived (shouldn't happen, cheap).
    while (rx.next_new_seq < flow.seq_count() && st != nullptr &&
           st->has(rx.next_new_seq)) {
      ++rx.next_new_seq;
    }
    if (rx.next_new_seq >= flow.seq_count()) return false;
    seq = rx.next_new_seq++;
  }
  rx.outstanding.emplace(seq, network().sim().now());

  auto grant = make_control<GrantTokenPacket>(flow.src, kHomaGrant);
  grant->flow_id = flow.id;
  grant->data_seq = seq;
  grant->data_priority = kScheduledPriority;
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

net::Topology::HostFactory homa_host_factory(bool aeolus) {
  return [aeolus](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<HomaHost>(host_id, aeolus);
  };
}

void homa_port_customize(net::PortConfig& cfg) {
  cfg.aeolus_threshold = cfg.buffer_bytes / 8;
}

}  // namespace dcpim::proto
