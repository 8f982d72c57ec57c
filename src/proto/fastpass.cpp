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

/// Strict-priority queue of every data packet.
constexpr std::uint8_t kDataPriority = 2;
}  // namespace

// ===== arbiter ===============================================================

FastpassArbiter::FastpassArbiter(net::Network& net) : net_(net) {}

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
    net_.sim().schedule_after(net_.max_control_rtt() / 2,
                              [host, id]() { host->on_allocation(id); });
  }

  const Time slot =
      serialization_time(net::kMtuWire, net_.host(0)->nic()->config().rate);
  net_.sim().schedule_after(slot, [this]() { tick(); });
}

// ===== host ==================================================================

FastpassHost::FastpassHost(net::Network& net, int host_id,
                           FastpassArbiter& arbiter)
    : net::Host(net, host_id), arbiter_(arbiter) {
  arbiter.register_host(host_id, this);
}

void FastpassHost::on_flow_arrival(net::Flow& flow) {
  create_state<TxFlow>(flow, Role::kSender);
  // Every packet — even a single-packet RPC — must be scheduled first: the
  // request reaches the arbiter half a control RTT from now.
  const int src = host_id();
  const int dst = flow.dst;
  const std::uint64_t id = flow.id;
  const std::uint32_t packets = flow.seq_count();
  network().sim().schedule_after(
      network().max_control_rtt() / 2, [this, src, dst, id, packets]() {
        arbiter_.add_demand(src, dst, id, packets);
      });
  ++counters_.requests_sent;
  arm_loss_timer(flow.id);
}

void FastpassHost::on_allocation(std::uint64_t flow_id) {
  ++counters_.allocations_received;
  net::Flow* flow = network().flow(flow_id);
  TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
  if (tx == nullptr) return;
  std::uint32_t seq;
  if (!tx->retransmit.empty()) {
    seq = tx->retransmit.front();
    tx->retransmit.pop_front();
  } else if (tx->next_seq < flow->seq_count()) {
    seq = tx->next_seq++;
  } else {
    return;  // nothing left (e.g. re-requested slots raced a completion)
  }
  send(make_data_packet(*flow, {.seq = seq, .priority = kDataPriority}));
  ++counters_.data_sent;
}

void FastpassHost::arm_loss_timer(std::uint64_t flow_id) {
  network().sim().schedule_after(
      network().max_control_rtt() * 10, [this, flow_id]() {
        net::Flow* flow = network().flow(flow_id);
        TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
        if (tx == nullptr) return;
        if (flow->finished()) {
          release_state(*flow, Role::kSender);
          return;
        }
        const std::uint32_t packets = flow->seq_count();
        if (tx->next_seq >= packets && tx->retransmit.empty()) {
          // Everything was transmitted yet the flow is incomplete: some
          // packets died in transit. Fastpass has no data acks (the arbiter
          // prevents contention, so this is rare); re-request allocations
          // for a full resend of the flow — the receiver dedupes whatever
          // did arrive.
          for (std::uint32_t seq = 0; seq < packets; ++seq) {
            tx->retransmit.push_back(seq);
          }
          ++counters_.rerequests;
          arbiter_.add_demand(host_id(), flow->dst, flow_id, packets);
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

net::Topology::HostFactory fastpass_host_factory(FastpassArbiter& arbiter) {
  return [&arbiter](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<FastpassHost>(host_id, arbiter);
  };
}

}  // namespace dcpim::proto
