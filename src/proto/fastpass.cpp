#include "proto/fastpass.h"

#include <algorithm>
#include <set>
#include <vector>

#include "proto/common.h"
#include "util/logging.h"

namespace dcpim::proto {

namespace {
// Fastpass needs no control packets on the wire: loss re-requests go
// straight to the in-process arbiter (arbiter_.add_demand), so data is the
// whole vocabulary and the on_packet switch below is exhaustive.
enum FastpassKind : int {
  kFpData = 0,
};
}  // namespace

// ===== arbiter ===============================================================

FastpassArbiter::FastpassArbiter(net::Network& net, const FastpassConfig& cfg)
    : net_(net), cfg_(cfg) {}

void FastpassArbiter::register_host(int host_id, FastpassHost* host) {
  hosts_[host_id] = host;
}

void FastpassArbiter::add_demand(int src, int dst, std::uint64_t flow_id,
                                 std::uint32_t packets) {
  if (packets == 0) return;
  PairDemand& pd = demand_[{src, dst}];
  pd.flows.emplace_back(flow_id, packets);
  pd.total += packets;
  if (!running_) {
    running_ = true;
    tick();
  }
}

void FastpassArbiter::tick() {
  if (demand_.empty()) {
    running_ = false;
    return;
  }
  ++matchings_computed_;
  // Greedy maximal matching over the demand matrix: iterate pairs in
  // rotating order (fairness), match each src/dst at most once.
  std::vector<std::pair<int, int>> matched_pairs;
  {
    std::vector<const std::pair<const std::pair<int, int>, PairDemand>*> pairs;
    pairs.reserve(demand_.size());
    for (const auto& kv : demand_) pairs.push_back(&kv);
    // Rotate the starting point so no pair is structurally favored.
    const std::size_t offset =
        pairs.empty() ? 0 : matchings_computed_ % pairs.size();
    std::set<int> src_used, dst_used;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& kv = *pairs[(i + offset) % pairs.size()];
      const auto [src, dst] = kv.first;
      if (src_used.contains(src) || dst_used.contains(dst)) continue;
      src_used.insert(src);
      dst_used.insert(dst);
      matched_pairs.push_back(kv.first);
    }
  }

  for (const auto& key : matched_pairs) {
    auto it = demand_.find(key);
    PairDemand& pd = it->second;
    auto& [flow_id, remaining] = pd.flows.front();
    const std::uint64_t id = flow_id;
    --remaining;
    --pd.total;
    if (remaining == 0) pd.flows.pop_front();
    if (pd.total == 0) demand_.erase(it);
    ++slots_allocated_;
    // Allocation reaches the sender half a control RTT later.
    FastpassHost* host = hosts_.at(key.first);
    net_.sim().schedule_after(cfg_.control_rtt / 2,
                              [host, id]() { host->on_allocation(id); });
  }

  const Time slot =
      cfg_.timeslot > Time{}
          ? cfg_.timeslot
          : serialization_time(net_.config().mtu_wire(),
                               net_.host(0)->nic()->config().rate);
  net_.sim().schedule_after(slot, [this]() { tick(); });
}

// ===== host ==================================================================

FastpassHost::FastpassHost(net::Network& net, int host_id,
                           const net::PortConfig& nic,
                           const FastpassConfig& cfg, FastpassArbiter& arbiter)
    : net::Host(net, host_id, nic), cfg_(cfg), arbiter_(arbiter) {
  arbiter.register_host(host_id, this);
}

void FastpassHost::on_flow_arrival(net::Flow& flow) {
  TxFlow tx;
  tx.flow = &flow;
  tx.packets = static_cast<std::uint32_t>(
      // sa-ok(unit-raw): data seq numbers are raw uint32 indices on the wire
      flow.packet_count(network().config().mtu_payload).raw());
  tx_flows_.emplace(flow.id, tx);
  // Every packet — even a single-packet RPC — must be scheduled first: the
  // request reaches the arbiter half a control RTT from now.
  const int src = host_id();
  const int dst = flow.dst;
  const std::uint64_t id = flow.id;
  const std::uint32_t packets = tx.packets;
  network().sim().schedule_after(cfg_.control_rtt / 2, [this, src, dst, id,
                                                        packets]() {
    arbiter_.add_demand(src, dst, id, packets);
  });
  ++counters_.requests_sent;
  arm_loss_timer(flow.id);
}

void FastpassHost::on_allocation(std::uint64_t flow_id) {
  ++counters_.allocations_received;
  auto it = tx_flows_.find(flow_id);
  if (it == tx_flows_.end()) return;
  TxFlow& tx = it->second;
  std::uint32_t seq;
  if (!tx.retransmit.empty()) {
    seq = tx.retransmit.front();
    tx.retransmit.pop_front();
  } else if (tx.next_seq < tx.packets) {
    seq = tx.next_seq++;
  } else {
    return;  // nothing left (e.g. re-requested slots raced a completion)
  }
  send(make_data_packet(*tx.flow,
                        {.seq = seq, .priority = cfg_.data_priority}));
  ++counters_.data_sent;
}

void FastpassHost::arm_loss_timer(std::uint64_t flow_id) {
  network().sim().schedule_after(
      cfg_.effective_loss_timeout(), [this, flow_id]() {
        auto it = tx_flows_.find(flow_id);
        if (it == tx_flows_.end()) return;
        TxFlow& tx = it->second;
        if (tx.flow->finished()) {
          tx_flows_.erase(it);
          return;
        }
        if (tx.next_seq >= tx.packets && tx.retransmit.empty()) {
          // Everything was transmitted yet the flow is incomplete: some
          // packets died in transit. Fastpass has no data acks (the arbiter
          // prevents contention, so this is rare); re-request allocations
          // for a full resend of the flow — the receiver dedupes whatever
          // did arrive.
          for (std::uint32_t seq = 0; seq < tx.packets; ++seq) {
            tx.retransmit.push_back(seq);
          }
          ++counters_.rerequests;
          arbiter_.add_demand(host_id(), tx.flow->dst, flow_id, tx.packets);
        }
        arm_loss_timer(flow_id);
      });
}

void FastpassHost::on_packet(net::PacketPtr p) {
  switch (p->kind) {
    case kFpData:
      accept_data(*p);
      break;
    default:
      LOG_WARN("fastpass host %d: unknown packet kind %d", host_id(),
               p->kind);
  }
}

net::Topology::HostFactory fastpass_host_factory(const FastpassConfig& cfg,
                                                 FastpassArbiter& arbiter) {
  return [&cfg, &arbiter](net::Network& net, int host_id,
                          const net::PortConfig& nic) -> net::Host* {
    return net.add_device<FastpassHost>(host_id, nic, cfg, arbiter);
  };
}

}  // namespace dcpim::proto
