#include "core/dcpim_host.h"

#include <algorithm>
#include "util/check.h"
#include <limits>

#include "util/logging.h"

namespace dcpim::core {

namespace {
constexpr std::uint8_t kShortFlowPriority = 1;
constexpr std::uint8_t kLongFlowBasePriority = 2;

std::uint32_t seq_count(const net::Flow& flow, Bytes mtu_payload) {
  // sa-ok(unit-raw): data seq numbers are raw uint32 indices on the wire
  return static_cast<std::uint32_t>(flow.packet_count(mtu_payload).raw());
}
}  // namespace

DcpimHost::DcpimHost(net::Network& net, int host_id,
                     const net::PortConfig& nic, const DcpimConfig& cfg)
    : net::Host(net, host_id, nic), cfg_(cfg) {
  if (cfg_.clock_jitter > Time{}) {
    jitter_ = Time{static_cast<std::int64_t>(network().rng().uniform_int(
        // sa-ok(unit-raw): the rng draws over a raw inclusive picosecond range
        static_cast<std::uint64_t>(cfg_.clock_jitter.raw()) + 1))};
  }
  // First matching phase begins at local time 0 (+ jitter). The config's
  // topology-derived fields are read lazily at event time, so the owner may
  // fill them in after construction but before the simulation starts.
  network().sim().schedule_at(TimePoint(jitter_), [this]() { epoch_tick(0); });
}

// ===== clock ================================================================

Time DcpimHost::period() const {
  return cfg_.pipeline_phases ? cfg_.epoch_length() : 2 * cfg_.epoch_length();
}

TimePoint DcpimHost::matching_start(std::uint64_t m) const {
  return TimePoint(jitter_ + period() * m);
}

TimePoint DcpimHost::data_phase_start(std::uint64_t m) const {
  return matching_start(m) + cfg_.epoch_length();
}

Bytes DcpimHost::channel_bytes_per_phase() const {
  return bytes_in(cfg_.epoch_length(), nic()->config().rate) / cfg_.channels;
}

std::size_t DcpimHost::total_window_packets() const {
  const Bytes mtu = network().config().mtu_payload;
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, cfg_.effective_token_window() / mtu));
}

void DcpimHost::forget_outstanding(RxFlow& rx) {
  DCPIM_CHECK_GE(outstanding_total_, rx.outstanding.size(),
                 "receiver outstanding-token accounting drifted");
  outstanding_total_ -= rx.outstanding.size();
  rx.outstanding.clear();
}

std::uint32_t DcpimHost::window_packets(int channels) const {
  const Bytes window =
      cfg_.effective_token_window() * channels / cfg_.channels;
  const Bytes mtu = network().config().mtu_payload;
  return static_cast<std::uint32_t>(std::max<std::int64_t>(1, window / mtu));
}

void DcpimHost::epoch_tick(std::uint64_t m) {
  cfg_.validate();
  gc_epochs(m);

  // Epoch boundaries are the natural instants for event-driven invariant
  // checks: matching state for epoch m-1 is final, m's is untouched.
  if (epoch_audit_hook_) epoch_audit_hook_(m);

  rescue_overdue_short_flows();
  ReceiverEpochState& st = receiver_epoch(m);
  snapshot_demand(st);

  // Request stages for rounds 1..r at offsets 0, 2S, 4S, ... (§3.3: accept
  // of round i shares the stage slot with request of round i+1).
  const Time S = cfg_.stage_length();
  run_request_stage(m, 1);
  for (int round = 2; round <= cfg_.rounds; ++round) {
    network().sim().schedule_at(
        matching_start(m) + S * (2 * (round - 1)),
        [this, m, round]() { run_request_stage(m, round); });
  }

  // This phase's matches drive tokens one epoch-length later.
  network().sim().schedule_at(data_phase_start(m),
                              [this, m]() { start_data_phase(m); });
  network().sim().schedule_at(matching_start(m + 1),
                              [this, m]() { epoch_tick(m + 1); });
}

// ===== sender side ===========================================================

void DcpimHost::on_flow_arrival(net::Flow& flow) {
  TxFlow tx;
  tx.flow = &flow;
  tx.packets = seq_count(flow, network().config().mtu_payload);
  tx.sent.assign(tx.packets, false);
  tx.is_short = flow.size <= cfg_.effective_short_threshold();
  auto [it, inserted] = tx_flows_.emplace(flow.id, std::move(tx));
  DCPIM_CHECK(inserted, "duplicate flow arrival at sender");
  TxFlow& ref = it->second;

  send_notification(ref, /*retransmit=*/false);
  schedule_notify_timer(flow.id);

  if (ref.is_short) {
    // Short latency-sensitive flows bypass matching entirely (§3.2): every
    // packet goes out immediately at the second-highest priority.
    for (std::uint32_t seq = 0; seq < ref.packets; ++seq) {
      send(make_data_packet(flow, {.seq = seq,
                                  .priority = kShortFlowPriority,
                                  .unscheduled = true}));
      ref.sent[seq] = true;
      ++ref.sent_count;
      ++counters_.short_data_sent;
      ++counters_.data_sent;
    }
    maybe_send_finish(ref);
  }
}

void DcpimHost::send_notification(TxFlow& tx, bool retransmit) {
  auto note = make_control<NotificationPacket>(tx.flow->dst, kNotification);
  note->flow_id = tx.flow->id;
  note->flow_size = tx.flow->size;
  note->is_retransmit = retransmit;
  send(std::move(note));
  ++counters_.notifications_sent;
  if (retransmit) ++counters_.notify_retx;
}

void DcpimHost::schedule_notify_timer(std::uint64_t flow_id) {
  network().sim().schedule_after(cfg_.effective_control_retx(), [this,
                                                                 flow_id]() {
    auto it = tx_flows_.find(flow_id);
    if (it == tx_flows_.end()) return;
    TxFlow& tx = it->second;
    if (tx.notify_acked || tx.notify_retx >= cfg_.max_control_retx) return;
    ++tx.notify_retx;
    send_notification(tx, /*retransmit=*/true);
    schedule_notify_timer(flow_id);
  });
}

void DcpimHost::maybe_send_finish(TxFlow& tx) {
  if (tx.finish_sent || tx.sent_count < tx.packets) return;
  auto fin = make_control<FinishPacket>(tx.flow->dst, kFinish);
  fin->flow_id = tx.flow->id;
  fin->packets_sent = tx.packets;
  send(std::move(fin));
  tx.finish_sent = true;
  schedule_finish_timer(tx.flow->id);
}

void DcpimHost::schedule_finish_timer(std::uint64_t flow_id) {
  network().sim().schedule_after(
      cfg_.effective_control_retx(), [this, flow_id]() {
        auto it = tx_flows_.find(flow_id);
        if (it == tx_flows_.end()) return;
        TxFlow& tx = it->second;
        if (tx.finish_acked || tx.finish_retx >= cfg_.max_control_retx) return;
        ++tx.finish_retx;
        ++counters_.finish_retx;
        auto fin = make_control<FinishPacket>(tx.flow->dst, kFinish);
        fin->flow_id = tx.flow->id;
        fin->packets_sent = tx.packets;
        send(std::move(fin));
        schedule_finish_timer(flow_id);
      });
}

void DcpimHost::handle_request(const RequestPacket& req) {
  // Only grant when there really is an active flow toward that receiver.
  bool has_flow = false;
  for (const auto& [id, tx] : tx_flows_) {
    if (tx.flow->dst == req.src && !tx.finish_acked) {
      has_flow = true;
      break;
    }
  }
  if (!has_flow) return;

  SenderEpochState& st = sender_epoch(req.epoch);
  const Time S = cfg_.stage_length();
  // Stragglers (delayed control packets or skewed host clocks, §3.3/§3.5)
  // roll forward to the next round whose grant stage has not passed yet;
  // past the last round they are dropped and the receiver retries next
  // epoch.
  int round = req.round;
  auto grant_time = [&](int r) {
    return matching_start(req.epoch) + S * (2 * (r - 1) + 1);
  };
  while (round <= cfg_.rounds && network().sim().now() > grant_time(round)) {
    ++round;
  }
  if (round > cfg_.rounds) return;
  RequestPacket buffered = req;
  buffered.round = round;
  st.requests[round].push_back(buffered);
  if (!st.grant_stage_scheduled[round]) {
    st.grant_stage_scheduled[round] = true;
    const std::uint64_t m = req.epoch;
    network().sim().schedule_at(grant_time(round), [this, m, round]() {
      run_grant_stage(m, round);
    });
  }
}

void DcpimHost::run_grant_stage(std::uint64_t m, int round) {
  SenderEpochState& st = sender_epoch(m);
  std::vector<RequestPacket> reqs = std::move(st.requests[round]);
  st.requests[round].clear();
  int spare = cfg_.channels - st.matched_channels;
  if (spare <= 0 || reqs.empty()) return;

  const bool fct_round =
      round == 1 && cfg_.fct_optimizing_first_round && cfg_.flow_size_aware;
  if (fct_round) {
    // The FCT-optimizing round exists to let small/medium flows finish
    // early (§3.5). Flows larger than one data phase's worth of bytes gain
    // nothing from SRPT ordering here, but a strict order makes every
    // sender herd onto the same receiver and the grants collide. So: sort
    // by remaining size clamped at one phase of line-rate bytes, shuffling
    // first so ties (including all bulk flows) break randomly.
    const Bytes cap = bytes_in(cfg_.epoch_length(), nic()->config().rate);
    for (std::size_t i = reqs.size(); i > 1; --i) {
      std::swap(reqs[i - 1], reqs[network().rng().uniform_int(i)]);
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [cap](const RequestPacket& a, const RequestPacket& b) {
                       return std::min(a.min_remaining_bytes, cap) <
                              std::min(b.min_remaining_bytes, cap);
                     });
  }
  while (spare > 0 && !reqs.empty()) {
    std::size_t pick = 0;
    if (!fct_round) {
      pick = network().rng().uniform_int(reqs.size());
    }
    const RequestPacket req = reqs[pick];
    reqs[pick] = reqs.back();
    reqs.pop_back();
    const int give = std::min(spare, req.channels_wanted);
    if (give <= 0) continue;
    auto grant = make_control<GrantPacket>(req.src, kGrant);
    grant->epoch = m;
    grant->round = round;
    grant->channels_granted = give;
    grant->min_remaining_bytes = req.min_remaining_bytes;
    send(std::move(grant));
    ++counters_.grants_sent;
    st.granted[req.src] += give;
    spare -= give;
  }
}

void DcpimHost::handle_accept(const AcceptPacket& acc) {
  SenderEpochState& st = sender_epoch(acc.epoch);
  st.matched_channels += acc.channels_accepted;
  st.accepted[acc.src] += acc.channels_accepted;
}

bool DcpimHost::token_expired(const TokenPacket& tok) const {
  // Stale-token discard (§3.2): tokens die at the end of their data phase
  // plus a cRTT/2 grace period.
  const TimePoint phase_end =
      data_phase_start(tok.phase) + cfg_.epoch_length();
  return network().sim().now() > phase_end + cfg_.control_rtt / 2;
}

void DcpimHost::handle_token(const TokenPacket& tok) {
  ++counters_.tokens_received;
  if (token_expired(tok)) {
    ++counters_.tokens_expired;
    return;
  }
  if (tok.created_at != kTimeUnset) {
    counters_.token_oneway_time += network().sim().now() - tok.created_at;
    ++counters_.token_oneway_count;
  }
  token_queue_.push_back(tok);
  if (!sender_pacer_running_) {
    sender_pacer_running_ = true;
    sender_pacer_tick();
  }
}

void DcpimHost::sender_pacer_tick() {
  // Pop the next still-valid token; expired ones are dropped here rather
  // than standing in the NIC queue — their packets will be re-admitted when
  // the receiver matches this sender again (§3.2).
  while (!token_queue_.empty() && token_expired(token_queue_.front())) {
    ++counters_.tokens_expired;
    token_queue_.pop_front();
  }
  if (token_queue_.empty()) {
    sender_pacer_running_ = false;
    return;
  }
  const TokenPacket tok = token_queue_.front();
  token_queue_.pop_front();
  transmit_for_token(tok);
  network().sim().schedule_after(mtu_tx_time(),
                                 [this]() { sender_pacer_tick(); });
}

void DcpimHost::transmit_for_token(const TokenPacket& tok) {
  auto it = tx_flows_.find(tok.token_flow_id);
  if (it == tx_flows_.end()) return;
  TxFlow& tx = it->second;
  if (tok.data_seq >= tx.packets) return;
  send(make_data_packet(
      *tx.flow, {.seq = tok.data_seq, .priority = tok.data_priority}));
  ++counters_.data_sent;
  if (!tx.sent[tok.data_seq]) {
    tx.sent[tok.data_seq] = true;
    ++tx.sent_count;
  }
  maybe_send_finish(tx);
}

// ===== receiver side =========================================================

void DcpimHost::handle_notification(const NotificationPacket& note) {
  // Always ack; the sender retransmits until it hears us (§3.5).
  auto ack = make_control<NotifyAckPacket>(note.src, kNotifyAck);
  ack->flow_id = note.flow_id;
  send(std::move(ack));

  if (rx_flows_.count(note.flow_id) != 0) return;  // duplicate notification
  net::Flow* flow = network().flow(note.flow_id);
  if (flow == nullptr || flow->finished()) return;

  RxFlow rx;
  rx.flow = flow;
  rx.packets = seq_count(*flow, network().config().mtu_payload);
  rx.needs_matching = flow->size > cfg_.effective_short_threshold();
  rx_flows_.emplace(note.flow_id, std::move(rx));

  if (flow->size > cfg_.effective_short_threshold()) {
    rx_by_sender_[note.src].push_back(note.flow_id);
  } else {
    // Short flow: data is already en route unscheduled. If it does not
    // complete in time (drops under extreme incast), rescue it through the
    // matching phase (§3.2).
    const Time expected = nic()->tx_time(flow->size) + cfg_.control_rtt * 4;
    const std::uint64_t id = note.flow_id;
    network().sim().schedule_after(expected,
                                   [this, id]() { check_short_flow(id); });
  }
}

void DcpimHost::check_short_flow(std::uint64_t flow_id) {
  auto it = rx_flows_.find(flow_id);
  if (it == rx_flows_.end()) return;  // completed and GC'd
  RxFlow& rx = it->second;
  if (rx.flow->finished()) return;
  if (rx.needs_matching) return;  // already rescued
  rx.needs_matching = true;
  ++counters_.short_flows_rescued;
  // Every packet was sent once unscheduled; admit the *missing* ones via
  // tokens after matching.
  rx.next_new_seq = rx.packets;
  rx.readmit.clear();
  const net::FlowRxState* st = find_rx_state(flow_id);
  for (std::uint32_t seq = 0; seq < rx.packets; ++seq) {
    if (st == nullptr || !st->has(seq)) rx.readmit.push_back(seq);
  }
  rx_by_sender_[rx.flow->src].push_back(flow_id);
}

void DcpimHost::rescue_overdue_short_flows() {
  if (rescue_watch_.empty()) return;
  const TimePoint now = network().sim().now();
  std::vector<std::uint64_t> keep;
  // The watch list is in packet-arrival order, which flow-id order would
  // not reproduce; lookups by id are fine.
  for (std::uint64_t id : rescue_watch_) {
    auto it = rx_flows_.find(id);
    if (it == rx_flows_.end() || it->second.needs_matching ||
        it->second.flow->finished()) {
      continue;  // drained, or already in the matching path
    }
    if (now >= it->second.rescue_deadline) {
      check_short_flow(id);
    } else {
      keep.push_back(id);
    }
  }
  rescue_watch_.swap(keep);
}

void DcpimHost::handle_finish(const FinishPacket& fin) {
  const net::Flow* flow = network().flow(fin.flow_id);
  if (flow == nullptr) return;
  if (flow->finished() || flow->dst != host_id()) {
    if (flow->finished()) {
      auto ack = make_control<FinishAckPacket>(fin.src, kFinishAck);
      ack->flow_id = fin.flow_id;
      send(std::move(ack));
    }
    return;
  }
  // Not complete: stay silent; the sender keeps retrying and the missing
  // packets are recovered through tokens.
}

void DcpimHost::handle_data(net::PacketPtr p) {
  const std::uint64_t id = p->flow_id;
  const std::uint32_t seq = p->seq;
  if (p->created_at != kTimeUnset && !p->unscheduled) {
    counters_.data_oneway_time += network().sim().now() - p->created_at;
    ++counters_.data_oneway_count;
  }
  accept_data(*p);

  auto it = rx_flows_.find(id);
  if (it == rx_flows_.end()) {
    // Data raced ahead of the notification (per-packet spraying can reorder
    // across paths); synthesize receiver state from the flow table.
    net::Flow* flow = network().flow(id);
    if (flow == nullptr) return;
    RxFlow rx;
    rx.flow = flow;
    rx.packets = seq_count(*flow, network().config().mtu_payload);
    rx.needs_matching = flow->size > cfg_.effective_short_threshold();
    it = rx_flows_.emplace(id, std::move(rx)).first;
    if (it->second.needs_matching) {
      rx_by_sender_[flow->src].push_back(id);
    } else {
      // Short flow whose data raced ahead of its notification. The
      // notification that eventually lands takes the duplicate early-return
      // above, so no check_short_flow timer is ever armed for it — a
      // partially-lost unscheduled burst (gray loss, blackholed spine)
      // would otherwise never be re-admitted: the receiver never requests,
      // and the sender's finish retries go unanswered until it gives up.
      // Stamp the deadline for the epoch_tick orphan sweep instead of
      // scheduling an event: the common completes-in-time case must leave
      // the clean-run event stream untouched.
      it->second.rescue_deadline = network().sim().now() +
                                   nic()->tx_time(flow->size) +
                                   cfg_.control_rtt * 4;
      rescue_watch_.push_back(id);
    }
  }
  RxFlow& rx = it->second;
  if (auto out_it = rx.outstanding.find(seq); out_it != rx.outstanding.end()) {
    counters_.token_loop_time += network().sim().now() - out_it->second;
    ++counters_.token_loop_count;
    rx.outstanding.erase(out_it);
    --outstanding_total_;
  }
  const int sender = rx.flow->src;
  if (rx.flow->finished()) {
    forget_outstanding(rx);
    rx_flows_.erase(it);  // rx_by_sender_ entries are pruned lazily
  }
  // Token clocking (§3.2): while the window was full the pacer skipped
  // ticks; a data arrival frees a window slot, so immediately send one new
  // token for the matched sender. Rate-safe: at most one token per data
  // packet received.
  for (ActiveMatch& match : active_matches_) {
    if (match.sender != sender || match.skipped_ticks == 0) continue;
    const TimePoint phase_end =
        data_phase_start(active_phase_) + cfg_.epoch_length();
    if (network().sim().now() < phase_end && issue_token(match)) {
      --match.skipped_ticks;
    }
    break;
  }
}

Bytes DcpimHost::flow_remaining(const RxFlow& rx) const {
  const net::FlowRxState* st =
      const_cast<DcpimHost*>(this)->find_rx_state(rx.flow->id);
  const Bytes received = st != nullptr ? st->received_bytes() : Bytes{};
  return rx.flow->size - received;
}

void DcpimHost::snapshot_demand(ReceiverEpochState& st) {
  for (auto& [sender, ids] : rx_by_sender_) {
    // Prune finished/rescued-away flows lazily.
    std::erase_if(ids, [this](std::uint64_t id) {
      auto it = rx_flows_.find(id);
      return it == rx_flows_.end() || it->second.flow->finished() ||
             !it->second.needs_matching;
    });
    Bytes pending{};
    Bytes min_rem = Bytes::max();
    for (std::uint64_t id : ids) {
      const Bytes rem = flow_remaining(rx_flows_.at(id));
      if (rem <= Bytes{}) continue;
      if (cfg_.flow_size_aware) {
        pending += rem;
        min_rem = std::min(min_rem, rem);
      } else {
        // Unknown sizes (§3.5): conservatively ask for one channel's worth
        // per active flow and leave the sort key flat (random ordering).
        pending += channel_bytes_per_phase();
      }
    }
    if (pending > Bytes{}) {
      st.demand[sender] = pending;
      st.min_remaining[sender] = min_rem;
    }
  }
}

void DcpimHost::run_request_stage(std::uint64_t m, int round) {
  ReceiverEpochState& st = receiver_epoch(m);
  const int spare = cfg_.channels - st.matched_channels;
  if (spare <= 0) return;
  const Bytes per_channel = channel_bytes_per_phase();
  // Requests leave this host in sender-id order.
  for (const auto& [sender, pending] : st.demand) {
    if (pending <= Bytes{}) continue;
    const int wanted = static_cast<int>(std::min<std::int64_t>(
        spare, (pending + per_channel - Bytes{1}) / per_channel));
    if (wanted <= 0) continue;
    auto req = make_control<RequestPacket>(sender, kRequest);
    req->epoch = m;
    req->round = round;
    req->channels_wanted = wanted;
    req->min_remaining_bytes = st.min_remaining[sender];
    send(std::move(req));
    ++counters_.requests_sent;
  }
}

void DcpimHost::handle_grant(const GrantPacket& grant) {
  ReceiverEpochState& st = receiver_epoch(grant.epoch);
  const Time S = cfg_.stage_length();
  // Same straggler roll-forward as for requests: a late grant competes in
  // the next accept stage of the epoch instead of being lost.
  int round = grant.round;
  auto accept_time = [&](int r) {
    return matching_start(grant.epoch) + S * (2 * r);
  };
  while (round <= cfg_.rounds && network().sim().now() > accept_time(round)) {
    ++round;
  }
  if (round > cfg_.rounds) return;
  GrantPacket buffered = grant;
  buffered.round = round;
  st.grants[round].push_back(buffered);
  if (!st.accept_stage_scheduled[round]) {
    st.accept_stage_scheduled[round] = true;
    const std::uint64_t m = grant.epoch;
    network().sim().schedule_at(accept_time(round), [this, m, round]() {
      run_accept_stage(m, round);
    });
  }
}

void DcpimHost::run_accept_stage(std::uint64_t m, int round) {
  ReceiverEpochState& st = receiver_epoch(m);
  std::vector<GrantPacket> grants = std::move(st.grants[round]);
  st.grants[round].clear();
  int spare = cfg_.channels - st.matched_channels;
  if (spare <= 0 || grants.empty()) return;

  const bool fct_round =
      round == 1 && cfg_.fct_optimizing_first_round && cfg_.flow_size_aware;
  if (fct_round) {
    // Clamped SRPT order with random tie-break, as in run_grant_stage.
    const Bytes cap = bytes_in(cfg_.epoch_length(), nic()->config().rate);
    for (std::size_t i = grants.size(); i > 1; --i) {
      std::swap(grants[i - 1], grants[network().rng().uniform_int(i)]);
    }
    std::stable_sort(grants.begin(), grants.end(),
                     [cap](const GrantPacket& a, const GrantPacket& b) {
                       return std::min(a.min_remaining_bytes, cap) <
                              std::min(b.min_remaining_bytes, cap);
                     });
  }
  const Bytes per_channel = channel_bytes_per_phase();
  while (spare > 0 && !grants.empty()) {
    std::size_t pick = 0;
    if (!fct_round) {
      pick = network().rng().uniform_int(grants.size());
    }
    const GrantPacket grant = grants[pick];
    grants[pick] = grants.back();
    grants.pop_back();

    auto demand_it = st.demand.find(grant.src);
    if (demand_it == st.demand.end() || demand_it->second <= Bytes{}) continue;
    const int demand_channels = static_cast<int>(std::min<std::int64_t>(
        cfg_.channels,
        (demand_it->second + per_channel - Bytes{1}) / per_channel));
    const int take =
        std::min({spare, grant.channels_granted, demand_channels});
    if (take <= 0) continue;

    auto acc = make_control<AcceptPacket>(grant.src, kAccept);
    acc->epoch = m;
    acc->round = round;
    acc->channels_accepted = take;
    send(std::move(acc));
    ++counters_.accepts_sent;

    st.matches[grant.src] += take;
    st.matched_channels += take;
    spare -= take;
    // §3.4: account for the bytes the accepted channels will carry.
    demand_it->second =
        std::max(Bytes{}, demand_it->second - per_channel * take);
  }
}

// ===== data phase (receiver) ================================================

void DcpimHost::start_data_phase(std::uint64_t m) {
  auto it = recv_epochs_.find(m);
  active_matches_.clear();
  active_phase_ = m;
  if (it == recv_epochs_.end() || it->second.matches.empty()) return;

  const Time token_timeout = cfg_.epoch_length() + cfg_.control_rtt;
  const TimePoint now = network().sim().now();
  // active_matches_ indexes token_tick round-robin order: sender-id order.
  for (const auto& [sender, channels] : it->second.matches) {
    // Requeue timed-out tokens for this sender's flows: their data was
    // lost (or the phase expired), so they must be re-admitted (§3.2).
    auto ids_it = rx_by_sender_.find(sender);
    if (ids_it != rx_by_sender_.end()) {
      for (std::uint64_t id : ids_it->second) {
        auto rx_it = rx_flows_.find(id);
        if (rx_it == rx_flows_.end()) continue;
        RxFlow& rx = rx_it->second;
        // readmit is a FIFO: timed-out seqs re-enter it in seq order.
        std::erase_if(rx.outstanding, [&](const auto& entry) {
          if (now - entry.second <= token_timeout) return false;
          --outstanding_total_;
          rx.readmit.push_back(entry.first);
          ++counters_.readmitted_seqs;
          return true;
        });
      }
    }
    active_matches_.push_back(ActiveMatch{sender, channels, 0});
  }
  for (std::size_t i = 0; i < active_matches_.size(); ++i) {
    token_tick(m, i);
  }
}

void DcpimHost::token_tick(std::uint64_t phase, std::size_t match_idx) {
  if (phase != active_phase_ || match_idx >= active_matches_.size()) return;
  const TimePoint phase_end = data_phase_start(phase) + cfg_.epoch_length();
  if (network().sim().now() >= phase_end) return;

  ActiveMatch& match = active_matches_[match_idx];
  if (!issue_token(match)) ++match.skipped_ticks;

  // c of the receiver's k channels are devoted to this sender: pace tokens
  // at c/k of the access rate (§3.4), with a small headroom (see
  // DcpimConfig::token_pacing_headroom).
  const Time interval = mtu_tx_time() * cfg_.channels / match.channels *
                        (1.0 + cfg_.token_pacing_headroom);
  network().sim().schedule_after(
      interval, [this, phase, match_idx]() { token_tick(phase, match_idx); });
}

bool DcpimHost::issue_token(ActiveMatch& match) {
  auto ids_it = rx_by_sender_.find(match.sender);
  if (ids_it == rx_by_sender_.end()) {
    ++counters_.pacer_skips_no_work;
    return false;
  }

  RxFlow* best = nullptr;
  Bytes best_rem = Bytes::max();
  const std::uint32_t window = window_packets(match.channels);
  bool saw_window_full = false;
  for (std::uint64_t id : ids_it->second) {
    auto it = rx_flows_.find(id);
    if (it == rx_flows_.end()) continue;
    RxFlow& rx = it->second;
    if (rx.flow->finished() || !rx.needs_matching) continue;
    if (rx.outstanding.size() >= window) {
      saw_window_full = true;
      continue;
    }
    const bool has_work =
        !rx.readmit.empty() || rx.next_new_seq < rx.packets;
    if (!has_work) continue;
    // SRPT among this sender's flows when sizes are known; first
    // eligible flow (FIFO by notification order) otherwise.
    const Bytes rem =
        cfg_.flow_size_aware ? flow_remaining(rx) : best_rem - Bytes{1};
    if (rem < best_rem) {
      best_rem = rem;
      best = &rx;
      if (!cfg_.flow_size_aware) break;
    }
  }
  if (best == nullptr) {
    if (saw_window_full) {
      ++counters_.pacer_skips_window;
    } else {
      ++counters_.pacer_skips_no_work;
    }
    return false;
  }

  std::uint32_t seq;
  if (!best->readmit.empty()) {
    seq = best->readmit.front();
    best->readmit.pop_front();
  } else {
    seq = best->next_new_seq++;
  }
  if (best->outstanding.emplace(seq, network().sim().now()).second) {
    ++outstanding_total_;
  }

  const net::FlowRxState* st = find_rx_state(best->flow->id);
  auto tok = make_control<TokenPacket>(best->flow->src, kToken);
  tok->flow_id = best->flow->id;
  tok->token_flow_id = best->flow->id;
  tok->data_seq = seq;
  tok->cumulative_ack = st != nullptr ? st->first_missing() : 0;
  tok->phase = active_phase_;
  tok->data_priority = data_priority_for(best_rem);
  send(std::move(tok));
  ++counters_.tokens_sent;
  return true;
}

std::uint8_t DcpimHost::data_priority_for(Bytes remaining) const {
  if (cfg_.long_flow_priorities <= 1) return kLongFlowBasePriority;
  // Map remaining size to levels 2..(2+levels-1) on a geometric BDP scale.
  Bytes threshold = cfg_.bdp_bytes * 2;
  int level = 0;
  while (level < cfg_.long_flow_priorities - 1 && remaining > threshold) {
    threshold *= 4;
    ++level;
  }
  return static_cast<std::uint8_t>(
      std::min<int>(kLongFlowBasePriority + level, net::kNumPriorities - 1));
}

// ===== dispatch ==============================================================

void DcpimHost::on_packet(net::PacketPtr p) {
  switch (p->kind) {
    case kData:
      handle_data(std::move(p));
      break;
    case kNotification:
      handle_notification(net::packet_cast<NotificationPacket>(*p));
      break;
    case kNotifyAck: {
      auto it = tx_flows_.find(p->flow_id);
      if (it != tx_flows_.end()) it->second.notify_acked = true;
      break;
    }
    case kFinish:
      handle_finish(net::packet_cast<FinishPacket>(*p));
      break;
    case kFinishAck: {
      auto it = tx_flows_.find(p->flow_id);
      if (it != tx_flows_.end()) {
        it->second.finish_acked = true;
        tx_flows_.erase(it);
      }
      break;
    }
    case kRequest:
      handle_request(net::packet_cast<RequestPacket>(*p));
      break;
    case kGrant:
      handle_grant(net::packet_cast<GrantPacket>(*p));
      break;
    case kAccept:
      handle_accept(net::packet_cast<AcceptPacket>(*p));
      break;
    case kToken:
      handle_token(net::packet_cast<TokenPacket>(*p));
      break;
    default:
      LOG_WARN("dcpim host %d: unknown packet kind %d", host_id(), p->kind);
  }
}

// ===== epoch state management ===============================================

DcpimHost::SenderEpochState& DcpimHost::sender_epoch(std::uint64_t m) {
  return send_epochs_[m];
}

DcpimHost::ReceiverEpochState& DcpimHost::receiver_epoch(std::uint64_t m) {
  return recv_epochs_[m];
}

void DcpimHost::gc_epochs(std::uint64_t current) {
  std::erase_if(send_epochs_, [current](const auto& kv) {
    return kv.first + 2 <= current;
  });
  std::erase_if(recv_epochs_, [current](const auto& kv) {
    return kv.first + 2 <= current;
  });
}

int DcpimHost::receiver_matched_channels(std::uint64_t epoch) const {
  auto it = recv_epochs_.find(epoch);
  return it == recv_epochs_.end() ? 0 : it->second.matched_channels;
}

int DcpimHost::receiver_matched_peers(std::uint64_t epoch) const {
  auto it = recv_epochs_.find(epoch);
  return it == recv_epochs_.end()
             ? 0
             : static_cast<int>(it->second.matches.size());
}

// ===== invariant audit hooks ================================================

void DcpimHost::audit_token_accounting(std::vector<std::string>& out) const {
  const std::string who = "host " + std::to_string(host_id());
  // Token clocking (§3.2): scheduled (matched-phase) data is admitted one
  // packet per token, so a sender can never have sent more token-clocked
  // packets than tokens it heard about.
  const std::uint64_t scheduled =
      counters_.data_sent - counters_.short_data_sent;
  if (scheduled > counters_.tokens_received) {
    out.push_back(who + " sent " + std::to_string(scheduled) +
                  " token-clocked data packets but received only " +
                  std::to_string(counters_.tokens_received) + " tokens");
  }
  // Receiver-side ledger: the aggregate outstanding-token count must equal
  // the sum of the per-flow maps it caches.
  std::size_t per_flow_outstanding = 0;
  const std::uint32_t window_cap = window_packets(cfg_.channels);
  for (const auto& [id, rx] : rx_flows_) {
    per_flow_outstanding += rx.outstanding.size();
    if (rx.outstanding.size() > window_cap) {
      out.push_back(who + " flow " + std::to_string(id) + " has " +
                    std::to_string(rx.outstanding.size()) +
                    " outstanding tokens, above the " +
                    std::to_string(window_cap) + "-packet window");
    }
  }
  if (per_flow_outstanding != outstanding_total_) {
    out.push_back(who + " outstanding-token total " +
                  std::to_string(outstanding_total_) +
                  " != per-flow sum " +
                  std::to_string(per_flow_outstanding));
  }
}

void DcpimHost::audit_matching(std::vector<std::string>& out) const {
  const std::string who = "host " + std::to_string(host_id());
  for (const auto& [epoch, st] : send_epochs_) {
    if (st.matched_channels < 0 || st.matched_channels > cfg_.channels) {
      out.push_back(who + " (sender) epoch " + std::to_string(epoch) +
                    " matched " + std::to_string(st.matched_channels) +
                    " channels, outside [0, " +
                    std::to_string(cfg_.channels) + "]");
    }
  }
  for (const auto& [epoch, st] : recv_epochs_) {
    if (st.matched_channels < 0 || st.matched_channels > cfg_.channels) {
      out.push_back(who + " (receiver) epoch " + std::to_string(epoch) +
                    " matched " + std::to_string(st.matched_channels) +
                    " channels, outside [0, " +
                    std::to_string(cfg_.channels) + "]");
    }
    int accepted_sum = 0;
    for (const auto& [sender, channels] : st.matches) {
      if (channels < 1 || channels > cfg_.channels) {
        out.push_back(who + " (receiver) epoch " + std::to_string(epoch) +
                      " matched sender " + std::to_string(sender) + " on " +
                      std::to_string(channels) + " channels");
      }
      accepted_sum += channels;
    }
    if (accepted_sum != st.matched_channels) {
      out.push_back(who + " (receiver) epoch " + std::to_string(epoch) +
                    " per-sender matches sum to " +
                    std::to_string(accepted_sum) + " but total says " +
                    std::to_string(st.matched_channels));
    }
  }
}

void DcpimHost::audit_channel_ledger(std::vector<std::string>& out) const {
  const std::string who = "host " + std::to_string(host_id());
  // Double-spend check (§3.3): a receiver spends a sender's grant by
  // accepting channels against it. Accepting more than this sender ever
  // offered it — in any round of the epoch — means a forged, replayed, or
  // double-counted Accept. Unclaimed offers are fine (grants race at the
  // receiver), so only the per-receiver upper bound is asserted, plus the
  // closed-ledger identity matched == Σ accepted.
  for (const auto& [epoch, st] : send_epochs_) {
    const std::string tag =
        who + " (sender) epoch " + std::to_string(epoch);
    int accepted_sum = 0;
    for (const auto& [receiver, taken] : st.accepted) {
      accepted_sum += taken;
      if (taken < 0) {
        out.push_back(tag + " recorded " + std::to_string(taken) +
                      " accepted channels from receiver " +
                      std::to_string(receiver));
        continue;
      }
      auto it = st.granted.find(receiver);
      const int offered = it == st.granted.end() ? 0 : it->second;
      if (taken > offered) {
        out.push_back(tag + " receiver " + std::to_string(receiver) +
                      " accepted " + std::to_string(taken) +
                      " channels against only " + std::to_string(offered) +
                      " granted (double-spend)");
      }
    }
    if (accepted_sum != st.matched_channels) {
      out.push_back(tag + " per-receiver accepts sum to " +
                    std::to_string(accepted_sum) + " but matched total says " +
                    std::to_string(st.matched_channels));
    }
    for (const auto& [receiver, offered] : st.granted) {
      if (offered < 0 || offered > cfg_.channels * cfg_.rounds) {
        out.push_back(tag + " offered receiver " +
                      std::to_string(receiver) + " " +
                      std::to_string(offered) + " channels, outside [0, " +
                      std::to_string(cfg_.channels * cfg_.rounds) + "]");
      }
    }
  }
}

net::Topology::HostFactory dcpim_host_factory(const DcpimConfig& cfg) {
  return [&cfg](net::Network& net, int host_id,
                const net::PortConfig& nic) -> net::Host* {
    return net.add_device<DcpimHost>(host_id, nic, cfg);
  };
}

}  // namespace dcpim::core
