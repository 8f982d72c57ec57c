#include "core/dcpim_host.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace dcpim::core {

// ===== TokenLedger ===========================================================

std::vector<TokenLedger::Entry>::iterator TokenLedger::find_slot(
    std::uint32_t seq) {
  return std::lower_bound(
      entries_.begin(), entries_.end(), seq,
      [](const Entry& e, std::uint32_t s) { return e.first < s; });
}

bool TokenLedger::add(std::uint32_t seq, TimePoint now) {
  if (entries_.empty() || entries_.back().first < seq) {
    entries_.emplace_back(seq, now);
    return true;
  }
  const auto it = find_slot(seq);
  if (it->first == seq) return false;
  entries_.emplace(it, seq, now);
  return true;
}

TimePoint TokenLedger::take(std::uint32_t seq) {
  const auto it = find_slot(seq);
  if (it == entries_.end() || it->first != seq) return kTimeUnset;
  const TimePoint issued = it->second;
  entries_.erase(it);
  return issued;
}

namespace {
constexpr std::uint8_t kShortFlowPriority = 1;
constexpr std::uint8_t kLongFlowBasePriority = 2;

/// Notification / finish control retransmissions (one per cRTT) before the
/// sender gives up.
constexpr int kMaxControlRetx = 50;

/// Fractional slack added to the token pacing interval. Pacing tokens at
/// exactly line rate leaves zero headroom: any control-plane jitter
/// compresses token spacing, builds a standing queue at the sender NIC, and
/// inflates the token->data loop beyond what the 1-BDP window covers. A few
/// percent of headroom keeps the loop near its unloaded value.
constexpr double kTokenPacingHeadroom = 0.04;
}  // namespace

DcpimHost::DcpimHost(net::Network& net, int host_id, DcpimConfig cfg)
    : net::Host(net, host_id), cfg_(cfg) {
  cfg_.validate();  // once: the host's copy never changes
  if (cfg_.clock_jitter > Time{}) {
    jitter_ = Time{static_cast<std::int64_t>(network().rng().uniform_int(
        // sa-ok(unit-raw): the rng draws over a raw inclusive picosecond range
        static_cast<std::uint64_t>(cfg_.clock_jitter.raw()) + 1))};
  }
  // First matching phase begins at local time 0 (+ jitter).
  network().sim().schedule_at(TimePoint(jitter_), [this]() { epoch_tick(0); });
}

// ===== clock ================================================================

Time DcpimHost::stage_length() const {
  if (stage_length_ == Time{}) {
    stage_length_ = cfg_.stage_length(network().max_control_rtt());
  }
  return stage_length_;
}

Time DcpimHost::epoch_length() const {
  if (epoch_length_ == Time{}) {
    epoch_length_ = cfg_.epoch_length(network().max_control_rtt());
  }
  return epoch_length_;
}

Time DcpimHost::period() const {
  return cfg_.pipeline_phases ? epoch_length() : 2 * epoch_length();
}

TimePoint DcpimHost::matching_start(std::uint64_t m) const {
  return TimePoint(jitter_ + period() * m);
}

TimePoint DcpimHost::data_phase_start(std::uint64_t m) const {
  return matching_start(m) + epoch_length();
}

Bytes DcpimHost::channel_bytes_per_phase() const {
  return bytes_in(epoch_length(), nic()->config().rate) / cfg_.channels;
}

void DcpimHost::forget_outstanding(RxFlow& rx) {
  DCPIM_CHECK_GE(outstanding_total_, rx.outstanding.size(),
                 "receiver outstanding-token accounting drifted");
  outstanding_total_ -= rx.outstanding.size();
  rx.outstanding.clear();
}

std::uint32_t DcpimHost::window_packets(int channels) const {
  const Bytes window = network().bdp() * channels / cfg_.channels;
  return static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, window / net::kMtuPayload));
}

void DcpimHost::epoch_tick(std::uint64_t m) {
  gc_epochs(m);

  // Epoch boundaries are the natural instants for event-driven invariant
  // checks: matching state for epoch m-1 is final, m's is untouched.
  if (epoch_audit_hook_) epoch_audit_hook_(m);

  rescue_overdue_short_flows();
  snapshot_demand(epochs_[m]);

  // Request stages for rounds 1..r in slots 0, 2, 4, ... (§3.3: accept of
  // round i shares the stage slot with request of round i+1).
  run_request_stage(m, 1);
  for (int round = 2; round <= cfg_.rounds; ++round) {
    network().sim().schedule_at(
        matching_start(m) + stage_length() * (2 * (round - 1)),
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
  TxFlow& tx = create_state<TxFlow>(flow, Role::kSender);
  tx.sent.reset(flow.seq_count());
  ++by_host(tx_per_receiver_, flow.dst);

  send_notification(flow, /*retransmit=*/false);
  schedule_notify_timer(flow.id);

  if (flow.size <= network().bdp()) {
    // Short latency-sensitive flows bypass matching entirely (§3.2): every
    // packet goes out immediately at the second-highest priority.
    for (std::uint32_t seq = 0; seq < flow.seq_count(); ++seq) {
      send(make_data_packet(flow, {.seq = seq,
                                  .priority = kShortFlowPriority,
                                  .unscheduled = true}));
      tx.sent.insert(seq);
      ++counters_.short_data_sent;
      ++counters_.data_sent;
    }
    maybe_send_finish(flow, tx);
  }
}

void DcpimHost::send_notification(const net::Flow& flow, bool retransmit) {
  auto note = make_control<NotificationPacket>(flow.dst, kNotification);
  note->flow_id = flow.id;
  note->flow_size = flow.size;
  note->is_retransmit = retransmit;
  send(std::move(note));
  ++counters_.notifications_sent;
  if (retransmit) ++counters_.notify_retx;
}

void DcpimHost::schedule_notify_timer(std::uint64_t flow_id) {
  network().sim().schedule_after(
      network().max_control_rtt(), [this, flow_id]() {
        net::Flow* flow = network().flow(flow_id);
        TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
        if (tx == nullptr || tx->notify_acked ||
            tx->notify_retx >= kMaxControlRetx) {
          return;
        }
        ++tx->notify_retx;
        send_notification(*flow, /*retransmit=*/true);
        schedule_notify_timer(flow_id);
      });
}

void DcpimHost::maybe_send_finish(const net::Flow& flow, TxFlow& tx) {
  if (tx.finish_sent || tx.sent.size() < flow.seq_count()) return;
  auto fin = make_control<FinishPacket>(flow.dst, kFinish);
  fin->flow_id = flow.id;
  fin->packets_sent = flow.seq_count();
  send(std::move(fin));
  tx.finish_sent = true;
  schedule_finish_timer(flow.id);
}

void DcpimHost::schedule_finish_timer(std::uint64_t flow_id) {
  network().sim().schedule_after(
      network().max_control_rtt(), [this, flow_id]() {
        net::Flow* flow = network().flow(flow_id);
        TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
        // Null once the finish ack has released the record.
        if (tx == nullptr || tx->finish_retx >= kMaxControlRetx) return;
        ++tx->finish_retx;
        ++counters_.finish_retx;
        auto fin = make_control<FinishPacket>(flow->dst, kFinish);
        fin->flow_id = flow_id;
        fin->packets_sent = flow->seq_count();
        send(std::move(fin));
        schedule_finish_timer(flow_id);
      });
}

void DcpimHost::handle_request(const RequestPacket& req) {
  // Only grant when there really is an active flow toward that receiver.
  if (by_host(tx_per_receiver_, req.src) == 0) return;
  buffer_offer(req.epoch, 2 * req.round - 1,
               {req.src, req.channels_wanted, req.min_remaining_bytes});
}

void DcpimHost::handle_accept(const AcceptPacket& acc) {
  Epoch& ep = epochs_[acc.epoch];
  ep.sender_matched += acc.channels_accepted;
  ep.ledger[acc.src].accepted += acc.channels_accepted;
}

bool DcpimHost::token_expired(std::uint64_t phase) const {
  // Stale-token discard (§3.2): tokens die at the end of their data phase
  // plus a cRTT/2 grace period.
  const TimePoint phase_end = data_phase_start(phase) + epoch_length();
  return network().sim().now() > phase_end + network().max_control_rtt() / 2;
}

void DcpimHost::handle_token(const TokenPacket& tok) {
  ++counters_.tokens_received;
  if (token_expired(tok.phase)) {
    ++counters_.tokens_expired;
    return;
  }
  if (tok.created_at != kTimeUnset) {
    counters_.token_oneway_time += network().sim().now() - tok.created_at;
    ++counters_.token_oneway_count;
  }
  token_queue_.push(QueuedToken{.flow_id = tok.token_flow_id,
                                .phase = tok.phase,
                                .seq = tok.data_seq,
                                .priority = tok.data_priority});
  if (!sender_pacer_running_) {
    sender_pacer_running_ = true;
    sender_pacer_tick();
  }
}

void DcpimHost::sender_pacer_tick() {
  // Pop the next still-valid token; expired ones are dropped here rather
  // than standing in the NIC queue — their packets will be re-admitted when
  // the receiver matches this sender again (§3.2).
  while (!token_queue_.empty() && token_expired(token_queue_.front().phase)) {
    ++counters_.tokens_expired;
    token_queue_.pop();
  }
  if (token_queue_.empty()) {
    sender_pacer_running_ = false;
    return;
  }
  transmit_for_token(token_queue_.pop());
  network().sim().schedule_after(mtu_tx_time(),
                                 [this]() { sender_pacer_tick(); });
}

void DcpimHost::transmit_for_token(const QueuedToken& tok) {
  net::Flow* flow = network().flow(tok.flow_id);
  TxFlow* tx = find_state<TxFlow>(flow, Role::kSender);
  if (tx == nullptr || tok.seq >= flow->seq_count()) return;
  send(make_data_packet(*flow, {.seq = tok.seq, .priority = tok.priority}));
  ++counters_.data_sent;
  tx->sent.insert(tok.seq);
  maybe_send_finish(*flow, *tx);
}

// ===== receiver side =========================================================

void DcpimHost::handle_notification(const NotificationPacket& note) {
  // Always ack; the sender retransmits until it hears us (§3.5).
  auto ack = make_control<NotifyAckPacket>(note.src, kNotifyAck);
  ack->flow_id = note.flow_id;
  send(std::move(ack));

  net::Flow* flow = network().flow(note.flow_id);
  if (find_state<RxFlow>(flow, Role::kReceiver) != nullptr) {
    return;  // duplicate notification
  }
  if (flow == nullptr || flow->finished()) return;

  if (!create_rx(*flow).needs_matching) {
    // Short flow: data is already en route unscheduled. If it does not
    // complete in time (drops under extreme incast), rescue it through the
    // matching phase (§3.2).
    const Time expected =
        nic()->tx_time(flow->size) + network().max_control_rtt() * 4;
    const std::uint64_t id = note.flow_id;
    network().sim().schedule_after(expected,
                                   [this, id]() { check_short_flow(id); });
  }
}

DcpimHost::RxFlow& DcpimHost::create_rx(net::Flow& flow) {
  RxFlow& rx = create_state<RxFlow>(flow, Role::kReceiver);
  // Flows arrive in id order, so this is almost always an append.
  rx_ids_.insert(std::upper_bound(rx_ids_.begin(), rx_ids_.end(), flow.id),
                 flow.id);
  rx.needs_matching = flow.size > network().bdp();
  if (rx.needs_matching) by_host(rx_by_sender_, flow.src).push_back(flow.id);
  return rx;
}

template <typename T>
T& DcpimHost::by_host(std::vector<T>& index, int host) {
  if (index.empty()) {
    index.resize(static_cast<std::size_t>(network().num_hosts()));
  }
  return index[static_cast<std::size_t>(host)];
}

void DcpimHost::check_short_flow(std::uint64_t flow_id) {
  net::Flow* flow = network().flow(flow_id);
  RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver);
  if (rx == nullptr) return;  // completed and released
  if (flow->finished()) return;
  if (rx->needs_matching) return;  // already rescued
  rx->needs_matching = true;
  ++counters_.short_flows_rescued;
  // Every packet was sent once unscheduled; admit the *missing* ones via
  // tokens after matching.
  rx->next_new_seq = flow->seq_count();
  rx->readmit.clear();
  const net::FlowRxState* st = find_rx_state(flow_id);
  for (std::uint32_t seq = 0; seq < flow->seq_count(); ++seq) {
    if (st == nullptr || !st->has(seq)) rx->readmit.push(seq);
  }
  by_host(rx_by_sender_, flow->src).push_back(flow_id);
}

void DcpimHost::rescue_overdue_short_flows() {
  if (rescue_watch_.empty()) return;
  const TimePoint now = network().sim().now();
  std::vector<std::uint64_t> keep;
  // The watch list is in packet-arrival order, which flow-id order would
  // not reproduce; lookups by id are fine.
  for (std::uint64_t id : rescue_watch_) {
    net::Flow* flow = network().flow(id);
    const RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver);
    if (rx == nullptr || rx->needs_matching || flow->finished()) {
      continue;  // drained, or already in the matching path
    }
    if (now >= rx->rescue_deadline) {
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

  net::Flow* flow = network().flow(id);
  if (flow == nullptr) return;
  RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver);
  if (rx == nullptr) {
    // Data raced ahead of the notification (per-packet spraying can reorder
    // across paths); synthesize receiver state from the flow table.
    rx = &create_rx(*flow);
    if (!rx->needs_matching) {
      // Short flow whose data raced ahead of its notification. The
      // notification that eventually lands takes the duplicate early-return
      // above, so no check_short_flow timer is ever armed for it — a
      // partially-lost unscheduled burst (gray loss, blackholed spine)
      // would otherwise never be re-admitted: the receiver never requests,
      // and the sender's finish retries go unanswered until it gives up.
      // Stamp the deadline for the epoch_tick orphan sweep instead of
      // scheduling an event: the common completes-in-time case must leave
      // the clean-run event stream untouched.
      rx->rescue_deadline = network().sim().now() +
                            nic()->tx_time(flow->size) +
                            network().max_control_rtt() * 4;
      rescue_watch_.push_back(id);
    }
  }
  if (const TimePoint issued = rx->outstanding.take(seq);
      issued != kTimeUnset) {
    counters_.token_loop_time += network().sim().now() - issued;
    ++counters_.token_loop_count;
    --outstanding_total_;
  }
  const int sender = flow->src;
  if (flow->finished()) {
    forget_outstanding(*rx);
    // rx_by_sender_ entries are pruned lazily.
    release_state(*flow, Role::kReceiver);
    rx_ids_.erase(std::lower_bound(rx_ids_.begin(), rx_ids_.end(), id));
  }
  // Token clocking (§3.2): while the window was full the pacer skipped
  // ticks; a data arrival frees a window slot, so immediately send one new
  // token for the matched sender. Rate-safe: at most one token per data
  // packet received.
  for (ActiveMatch& match : active_matches_) {
    if (match.sender != sender || match.skipped_ticks == 0) continue;
    const TimePoint phase_end =
        data_phase_start(active_phase_) + epoch_length();
    if (network().sim().now() < phase_end && issue_token(match)) {
      --match.skipped_ticks;
    }
    break;
  }
}

Bytes DcpimHost::flow_remaining(const net::Flow& flow) const {
  const net::FlowRxState* st = find_rx_state(flow.id);
  const Bytes received = st != nullptr ? st->received_bytes() : Bytes{};
  return flow.size - received;
}

void DcpimHost::snapshot_demand(Epoch& ep) {
  for (std::size_t i = 0; i < rx_by_sender_.size(); ++i) {
    const int sender = static_cast<int>(i);
    std::vector<std::uint64_t>& ids = rx_by_sender_[i];
    // Prune finished/rescued-away flows lazily.
    std::erase_if(ids, [this](std::uint64_t id) {
      const RxFlow* rx = find_state<RxFlow>(id, Role::kReceiver);
      return rx == nullptr || network().flow(id)->finished() ||
             !rx->needs_matching;
    });
    Bytes pending{};
    Bytes min_rem = Bytes::max();
    for (std::uint64_t id : ids) {
      const Bytes rem = flow_remaining(*network().flow(id));
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
    if (pending > Bytes{}) ep.demand[sender] = {pending, min_rem};
  }
}

void DcpimHost::run_request_stage(std::uint64_t m, int round) {
  Epoch& ep = epochs_[m];
  const int spare = cfg_.channels - ep.receiver_matched;
  if (spare <= 0) return;
  // Requests leave this host in sender-id order.
  for (const auto& [sender, demand] : ep.demand) {
    const int wanted = channels_for(demand.pending, spare);
    if (wanted <= 0) continue;
    auto req = make_control<RequestPacket>(sender, kRequest);
    req->epoch = m;
    req->round = round;
    req->channels_wanted = wanted;
    req->min_remaining_bytes = demand.min_remaining;
    send(std::move(req));
    ++counters_.requests_sent;
  }
}

void DcpimHost::handle_grant(const GrantPacket& grant) {
  buffer_offer(grant.epoch, 2 * grant.round,
               {grant.src, grant.channels_granted, grant.min_remaining_bytes});
}

void DcpimHost::buffer_offer(std::uint64_t m, int slot, const Offer& offer) {
  Epoch& ep = epochs_[m];
  // Stragglers (delayed control packets or skewed host clocks, §3.3/§3.5)
  // roll forward, two slots at a time, to the role's next stage that has
  // not started; past slot 2r they are dropped and the receiver retries
  // next epoch.
  const auto start = [&](int s) {
    return matching_start(m) + stage_length() * s;
  };
  while (slot <= 2 * cfg_.rounds && network().sim().now() > start(slot)) {
    slot += 2;
  }
  if (slot > 2 * cfg_.rounds) return;
  ep.stages.resize(static_cast<std::size_t>(2 * cfg_.rounds + 1));
  Stage& stage = ep.stages[static_cast<std::size_t>(slot)];
  // An offer arriving at exactly start(slot), after that stage ran, waits
  // here undrained: `scheduled` stays set. Fixing it moves outcome pins.
  stage.offers.push_back(offer);
  if (!stage.scheduled) {
    stage.scheduled = true;
    network().sim().schedule_at(start(slot),
                                [this, m, slot]() { run_stage(m, slot); });
  }
}

void DcpimHost::run_stage(std::uint64_t m, int slot) {
  Epoch& ep = epochs_[m];
  std::vector<Offer> offers =
      std::exchange(ep.stages[static_cast<std::size_t>(slot)].offers, {});
  const bool granting = slot % 2 == 1;
  int spare =
      cfg_.channels - (granting ? ep.sender_matched : ep.receiver_matched);
  if (spare <= 0 || offers.empty()) return;

  const int round = (slot + 1) / 2;
  const bool fct_round =
      round == 1 && cfg_.fct_optimizing_first_round && cfg_.flow_size_aware;
  if (fct_round) {
    // The FCT-optimizing round exists to let small/medium flows finish
    // early (§3.5). Flows larger than one data phase's worth of bytes gain
    // nothing from SRPT ordering here, but a strict order makes every
    // sender herd onto the same receiver and the grants collide. So: sort
    // by remaining size clamped at one phase of line-rate bytes, shuffling
    // first so ties (including all bulk flows) break randomly.
    const Bytes cap = bytes_in(epoch_length(), nic()->config().rate);
    for (std::size_t i = offers.size(); i > 1; --i) {
      std::swap(offers[i - 1], offers[network().rng().uniform_int(i)]);
    }
    std::stable_sort(offers.begin(), offers.end(),
                     [cap](const Offer& a, const Offer& b) {
                       return std::min(a.min_remaining, cap) <
                              std::min(b.min_remaining, cap);
                     });
  }
  // Other rounds draw each pick uniformly at random.
  while (spare > 0 && !offers.empty()) {
    const std::size_t pick =
        fct_round ? 0 : network().rng().uniform_int(offers.size());
    const Offer offer = offers[pick];
    offers[pick] = offers.back();
    offers.pop_back();
    spare -= granting ? send_grant(ep, m, round, offer, spare)
                      : send_accept(ep, m, round, offer, spare);
  }
}

int DcpimHost::send_grant(Epoch& ep, std::uint64_t m, int round,
                          const Offer& req, int spare) {
  const int give = std::min(spare, req.channels);
  if (give <= 0) return 0;
  auto grant = make_control<GrantPacket>(req.peer, kGrant);
  grant->epoch = m;
  grant->round = round;
  grant->channels_granted = give;
  grant->min_remaining_bytes = req.min_remaining;
  send(std::move(grant));
  ++counters_.grants_sent;
  ep.ledger[req.peer].granted += give;
  return give;
}

int DcpimHost::send_accept(Epoch& ep, std::uint64_t m, int round,
                           const Offer& offer, int spare) {
  auto demand = ep.demand.find(offer.peer);
  if (demand == ep.demand.end()) return 0;
  const int take = std::min(
      {spare, offer.channels, channels_for(demand->second.pending,
                                           cfg_.channels)});
  if (take <= 0) return 0;

  auto acc = make_control<AcceptPacket>(offer.peer, kAccept);
  acc->epoch = m;
  acc->round = round;
  acc->channels_accepted = take;
  send(std::move(acc));
  ++counters_.accepts_sent;

  ep.matches[offer.peer] += take;
  ep.receiver_matched += take;
  // §3.4: account for the bytes the accepted channels will carry.
  Bytes& pending = demand->second.pending;
  pending = std::max(Bytes{}, pending - channel_bytes_per_phase() * take);
  return take;
}

int DcpimHost::channels_for(Bytes pending, int cap) const {
  const Bytes per_channel = channel_bytes_per_phase();
  return static_cast<int>(std::min<std::int64_t>(
      cap, (pending + per_channel - Bytes{1}) / per_channel));
}

// ===== data phase (receiver) ================================================

void DcpimHost::start_data_phase(std::uint64_t m) {
  auto it = epochs_.find(m);
  active_matches_.clear();
  active_phase_ = m;
  if (it == epochs_.end() || it->second.matches.empty()) return;

  const Time token_timeout = epoch_length() + network().max_control_rtt();
  const TimePoint now = network().sim().now();
  // active_matches_ indexes token_tick round-robin order: sender-id order.
  for (const auto& [sender, channels] : it->second.matches) {
    // Requeue timed-out tokens for this sender's flows: their data was
    // lost (or the phase expired), so they must be re-admitted (§3.2).
    for (std::uint64_t id : by_host(rx_by_sender_, sender)) {
      RxFlow* rx = find_state<RxFlow>(id, Role::kReceiver);
      if (rx == nullptr) continue;
      // readmit is a FIFO: timed-out seqs re-enter it in seq order.
      rx->outstanding.remove_if([&](const TokenLedger::Entry& entry) {
        if (now - entry.second <= token_timeout) return false;
        --outstanding_total_;
        rx->readmit.push(entry.first);
        ++counters_.readmitted_seqs;
        return true;
      });
    }
    active_matches_.push_back(ActiveMatch{sender, channels, 0});
  }
  for (std::size_t i = 0; i < active_matches_.size(); ++i) {
    token_tick(m, i);
  }
}

void DcpimHost::token_tick(std::uint64_t phase, std::size_t match_idx) {
  if (phase != active_phase_ || match_idx >= active_matches_.size()) return;
  const TimePoint phase_end = data_phase_start(phase) + epoch_length();
  if (network().sim().now() >= phase_end) return;

  ActiveMatch& match = active_matches_[match_idx];
  if (!issue_token(match)) ++match.skipped_ticks;

  // c of the receiver's k channels are devoted to this sender: pace tokens
  // at c/k of the access rate (§3.4), with a small headroom (see
  // kTokenPacingHeadroom).
  const Time interval = mtu_tx_time() * cfg_.channels / match.channels *
                        (1.0 + kTokenPacingHeadroom);
  network().sim().schedule_after(
      interval, [this, phase, match_idx]() { token_tick(phase, match_idx); });
}

bool DcpimHost::issue_token(ActiveMatch& match) {
  RxFlow* best = nullptr;
  const net::Flow* best_flow = nullptr;
  Bytes best_rem = Bytes::max();
  const std::uint32_t window = window_packets(match.channels);
  bool saw_window_full = false;
  for (std::uint64_t id : by_host(rx_by_sender_, match.sender)) {
    net::Flow* flow = network().flow(id);
    RxFlow* rx = find_state<RxFlow>(flow, Role::kReceiver);
    if (rx == nullptr) continue;
    if (flow->finished() || !rx->needs_matching) continue;
    if (rx->outstanding.size() >= window) {
      saw_window_full = true;
      continue;
    }
    const bool has_work =
        !rx->readmit.empty() || rx->next_new_seq < flow->seq_count();
    if (!has_work) continue;
    // SRPT among this sender's flows when sizes are known; first
    // eligible flow (FIFO by notification order) otherwise.
    const Bytes rem =
        cfg_.flow_size_aware ? flow_remaining(*flow) : best_rem - Bytes{1};
    if (rem < best_rem) {
      best_rem = rem;
      best = rx;
      best_flow = flow;
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

  const std::uint32_t seq =
      best->readmit.empty() ? best->next_new_seq++ : best->readmit.pop();
  if (best->outstanding.add(seq, network().sim().now())) ++outstanding_total_;

  const net::FlowRxState* st = find_rx_state(best_flow->id);
  auto tok = make_control<TokenPacket>(best_flow->src, kToken);
  tok->flow_id = best_flow->id;
  tok->token_flow_id = best_flow->id;
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
  Bytes threshold = network().bdp() * 2;
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
      TxFlow* tx = find_state<TxFlow>(p->flow_id, Role::kSender);
      if (tx != nullptr) tx->notify_acked = true;
      break;
    }
    case kFinish:
      handle_finish(net::packet_cast<FinishPacket>(*p));
      break;
    case kFinishAck: {
      net::Flow* flow = network().flow(p->flow_id);
      if (find_state<TxFlow>(flow, Role::kSender) != nullptr) {
        release_state(*flow, Role::kSender);
        --by_host(tx_per_receiver_, flow->dst);
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

void DcpimHost::gc_epochs(std::uint64_t current) {
  std::erase_if(epochs_,
                [current](const auto& kv) { return kv.first + 2 <= current; });
}

int DcpimHost::receiver_matched_channels(std::uint64_t epoch) const {
  auto it = epochs_.find(epoch);
  return it == epochs_.end() ? 0 : it->second.receiver_matched;
}

int DcpimHost::receiver_matched_peers(std::uint64_t epoch) const {
  auto it = epochs_.find(epoch);
  return it == epochs_.end() ? 0
                             : static_cast<int>(it->second.matches.size());
}

// ===== invariant audit hooks ================================================

void DcpimHost::audit_token_accounting(std::vector<std::string>& out) const {
  const auto who = [this] { return "host " + std::to_string(host_id()); };
  // Token clocking (§3.2): scheduled (matched-phase) data is admitted one
  // packet per token, so a sender can never have sent more token-clocked
  // packets than tokens it heard about.
  const std::uint64_t scheduled =
      counters_.data_sent - counters_.short_data_sent;
  if (scheduled > counters_.tokens_received) {
    out.push_back(who() + " sent " + std::to_string(scheduled) +
                  " token-clocked data packets but received only " +
                  std::to_string(counters_.tokens_received) + " tokens");
  }
  // Receiver-side ledger: the aggregate outstanding-token count must equal
  // the sum of the per-flow ledgers it caches.
  std::size_t per_flow_outstanding = 0;
  const std::uint32_t window_cap = window_packets(cfg_.channels);
  for (std::uint64_t id : rx_ids_) {
    const RxFlow& rx = *find_state<RxFlow>(id, Role::kReceiver);
    per_flow_outstanding += rx.outstanding.size();
    if (rx.outstanding.size() > window_cap) {
      out.push_back(who() + " flow " + std::to_string(id) + " has " +
                    std::to_string(rx.outstanding.size()) +
                    " outstanding tokens, above the " +
                    std::to_string(window_cap) + "-packet window");
    }
  }
  if (per_flow_outstanding != outstanding_total_) {
    out.push_back(who() + " outstanding-token total " +
                  std::to_string(outstanding_total_) +
                  " != per-flow sum " +
                  std::to_string(per_flow_outstanding));
  }
}

void DcpimHost::audit_matching(std::vector<std::string>& out) const {
  const auto who = [this] { return "host " + std::to_string(host_id()); };
  for (const auto& [epoch, ep] : epochs_) {
    if (ep.sender_matched < 0 || ep.sender_matched > cfg_.channels) {
      out.push_back(who() + " (sender) epoch " + std::to_string(epoch) +
                    " matched " + std::to_string(ep.sender_matched) +
                    " channels, outside [0, " +
                    std::to_string(cfg_.channels) + "]");
    }
  }
  for (const auto& [epoch, ep] : epochs_) {
    if (ep.receiver_matched < 0 || ep.receiver_matched > cfg_.channels) {
      out.push_back(who() + " (receiver) epoch " + std::to_string(epoch) +
                    " matched " + std::to_string(ep.receiver_matched) +
                    " channels, outside [0, " +
                    std::to_string(cfg_.channels) + "]");
    }
    int accepted_sum = 0;
    for (const auto& [sender, channels] : ep.matches) {
      if (channels < 1 || channels > cfg_.channels) {
        out.push_back(who() + " (receiver) epoch " + std::to_string(epoch) +
                      " matched sender " + std::to_string(sender) + " on " +
                      std::to_string(channels) + " channels");
      }
      accepted_sum += channels;
    }
    if (accepted_sum != ep.receiver_matched) {
      out.push_back(who() + " (receiver) epoch " + std::to_string(epoch) +
                    " per-sender matches sum to " +
                    std::to_string(accepted_sum) + " but total says " +
                    std::to_string(ep.receiver_matched));
    }
  }
}

void DcpimHost::audit_channel_ledger(std::vector<std::string>& out) const {
  const auto who = [this] { return "host " + std::to_string(host_id()); };
  // Double-spend check (§3.3): a receiver spends a sender's grant by
  // accepting channels against it. Accepting more than this sender ever
  // offered it — in any round of the epoch — means a forged, replayed, or
  // double-counted Accept. Unclaimed offers are fine (grants race at the
  // receiver), so only the per-receiver upper bound is asserted, plus the
  // closed-ledger identity matched == Σ accepted.
  for (const auto& [epoch, ep] : epochs_) {
    const auto tag = [&who, epoch] {
      return who() + " (sender) epoch " + std::to_string(epoch);
    };
    int accepted_sum = 0;
    for (const auto& [receiver, ledger] : ep.ledger) {
      const int taken = ledger.accepted;
      accepted_sum += taken;
      if (taken < 0) {
        out.push_back(tag() + " recorded " + std::to_string(taken) +
                      " accepted channels from receiver " +
                      std::to_string(receiver));
        continue;
      }
      if (taken > ledger.granted) {
        out.push_back(tag() + " receiver " + std::to_string(receiver) +
                      " accepted " + std::to_string(taken) +
                      " channels against only " +
                      std::to_string(ledger.granted) +
                      " granted (double-spend)");
      }
    }
    if (accepted_sum != ep.sender_matched) {
      out.push_back(tag() + " per-receiver accepts sum to " +
                    std::to_string(accepted_sum) + " but matched total says " +
                    std::to_string(ep.sender_matched));
    }
    for (const auto& [receiver, ledger] : ep.ledger) {
      const int offered = ledger.granted;
      if (offered < 0 || offered > cfg_.channels * cfg_.rounds) {
        out.push_back(tag() + " offered receiver " +
                      std::to_string(receiver) + " " +
                      std::to_string(offered) + " channels, outside [0, " +
                      std::to_string(cfg_.channels * cfg_.rounds) + "]");
      }
    }
  }
}

net::Topology::HostFactory dcpim_host_factory(DcpimConfig cfg) {
  return [cfg](net::Network& net, int host_id) -> net::Host* {
    return net.add_device<DcpimHost>(host_id, cfg);
  };
}

}  // namespace dcpim::core
