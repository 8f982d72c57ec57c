// DcpimHost: end-host implementation of the dcPIM protocol (§3).
//
// Each host plays both roles: sender (notifies flows, answers requests with
// grants, transmits admitted data) and receiver (tracks demand, issues
// requests/accepts, paces tokens). Time is organized into fixed epochs of
// length E = (2r+1)*beta*cRTT/2; the matching phase for data-epoch m runs in
// [m*P, m*P+E) and its matches drive token issue during [m*P+E, m*P+2E),
// where the period P is E when phases are pipelined (§3.3) and 2E in the
// sequential ablation. Hosts act purely on their local clocks (plus an
// optional per-host jitter) — no synchronization is assumed (§3.5).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/dcpim_config.h"
#include "core/dcpim_packets.h"
#include "net/host.h"
#include "net/topology.h"
#include "sim/ring.h"

namespace dcpim::core {

/// A receiver flow's outstanding tokens (§3.2): the seqs issued and not yet
/// answered by data, each with the instant it was issued, sorted by seq
/// with no seq twice. New seqs ascend, so an issue nearly always appends;
/// only a readmitted seq goes in mid-way. A flat vector, because a flow
/// holds at most one window of tokens (DcpimHost::window_packets).
class TokenLedger {
 public:
  using Entry = std::pair<std::uint32_t, TimePoint>;  ///< (seq, issued at)

  /// Records `seq` as issued at `now`. A seq already recorded keeps its
  /// entry and instant, and add() returns false.
  bool add(std::uint32_t seq, TimePoint now);
  /// Removes `seq` and returns its issue instant; kTimeUnset if absent.
  TimePoint take(std::uint32_t seq);
  /// Removes the entries `pred` selects, visiting all in seq order.
  template <typename Pred>
  void remove_if(Pred pred) {
    std::erase_if(entries_, pred);
  }
  void clear() { entries_.clear(); }

  std::size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry>::iterator find_slot(std::uint32_t seq);
  std::vector<Entry> entries_;
};

class DcpimHost : public net::Host {
 public:
  DcpimHost(net::Network& net, int host_id, DcpimConfig cfg);

  void on_flow_arrival(net::Flow& flow) override;

  // --- introspection (tests/benches) ---------------------------------------
  struct Counters {
    std::uint64_t notifications_sent = 0;
    std::uint64_t requests_sent = 0;
    std::uint64_t grants_sent = 0;
    std::uint64_t accepts_sent = 0;
    std::uint64_t tokens_sent = 0;
    std::uint64_t tokens_received = 0;  ///< tokens arriving at this sender
    std::uint64_t tokens_expired = 0;  ///< stale tokens discarded by sender
    std::uint64_t pacer_skips_window = 0;  ///< tick found all windows full
    std::uint64_t pacer_skips_no_work = 0;  ///< tick found nothing to admit
    Time token_loop_time{};   ///< sum of token->data round times
    std::uint64_t token_loop_count = 0;
    Time token_oneway_time{};  ///< token network latency sum
    std::uint64_t token_oneway_count = 0;
    Time data_oneway_time{};  ///< data network latency sum
    std::uint64_t data_oneway_count = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t short_data_sent = 0;
    std::uint64_t notify_retx = 0;
    std::uint64_t finish_retx = 0;
    std::uint64_t readmitted_seqs = 0;  ///< token retransmissions (loss)
    std::uint64_t short_flows_rescued = 0;  ///< short flows moved to matching
  };
  const Counters& counters() const { return counters_; }

  /// Loss recovery = notify/finish control retransmits plus token-timeout
  /// readmissions (§5.1) — the actions dcPIM takes only when packets die.
  std::uint64_t loss_recovery_count() const override {
    return counters_.notify_retx + counters_.finish_retx +
           counters_.readmitted_seqs;
  }

  /// Matched channels (receiver role) in the matching phase for epoch m.
  int receiver_matched_channels(std::uint64_t epoch) const;
  /// Distinct senders matched (receiver role) in epoch m.
  int receiver_matched_peers(std::uint64_t epoch) const;

  // --- invariant audit hooks (sim::Auditor probes; see harness/audit_probes)
  /// Token clocking (§3.2): every token-clocked data packet this host sent
  /// must be backed by a token it received; appends violations to `out`.
  void audit_token_accounting(std::vector<std::string>& out) const;
  /// Matching validity (Theorem 1 precondition, generalized to k channels,
  /// §3.4): per live epoch, no role holds more than k matched channels and
  /// the receiver's per-sender match table is consistent with its total.
  void audit_matching(std::vector<std::string>& out) const;
  /// Channel double-spend (§3.3): per live sender-side epoch, every
  /// receiver's accepted channels stay within what this sender's grant
  /// stages actually offered it, and the epoch's matched total equals the
  /// sum of per-receiver accepts; appends violations to `out`.
  void audit_channel_ledger(std::vector<std::string>& out) const;
  /// Event-driven audit hook, fired once per epoch rollover (after stale
  /// epoch state is garbage-collected, before the new matching phase is
  /// scheduled). Installed by harness/audit_probes.cpp against a
  /// sim::Auditor::add_event_probe slot; empty when auditing is off.
  using EpochAuditHook = std::function<void(std::uint64_t epoch)>;
  void set_epoch_audit_hook(EpochAuditHook hook) {
    epoch_audit_hook_ = std::move(hook);
  }

 protected:
  void on_packet(net::PacketPtr p) override;

 private:
  // === clock =================================================================
  // S and E are computed on first use and kept: the fabric's cRTT is set
  // by Topology::finalize after the hosts are built.
  Time stage_length() const;  ///< S = beta * cRTT / 2 (§3.3)
  Time epoch_length() const;  ///< E = (2r + 1) S
  Time period() const;  ///< epoch period P (E pipelined, 2E sequential)
  TimePoint matching_start(std::uint64_t m) const;
  TimePoint data_phase_start(std::uint64_t m) const;
  Bytes channel_bytes_per_phase() const;
  std::uint32_t window_packets(int channels) const;

  void epoch_tick(std::uint64_t m);

  // === matching phase (§3.3) ================================================
  /// A buffered request (at the sender) or grant (at the receiver).
  struct Offer {
    int peer = -1;     ///< the host that sent it
    int channels = 0;  ///< channels wanted (request) or granted (grant)
    Bytes min_remaining{};  ///< the receiver's smallest flow: FCT-opt key
  };
  struct Stage {
    std::vector<Offer> offers;  ///< drained when the stage runs
    bool scheduled = false;     ///< the stage's event is in the queue
  };
  struct Demand {
    Bytes pending{};  ///< bytes not yet covered by accepted channels
    Bytes min_remaining{};
  };
  /// A sender's channels offered to one receiver across the epoch's grant
  /// stages, and those the receiver claimed (audit_channel_ledger).
  struct ChannelLedger {
    int granted = 0;
    int accepted = 0;
  };
  /// Both roles' matching state for one epoch. Its 2r+1 stage slots start
  /// at matching_start + s*S: the receiver requests in slot 0, the sender
  /// grants round j in odd slot 2j-1, and the receiver accepts round j in
  /// even slot 2j, where it also requests round j+1.
  struct Epoch {
    std::vector<Stage> stages;  ///< sized when the first offer is buffered
    int sender_matched = 0;    ///< channels receivers accepted from us
    int receiver_matched = 0;  ///< channels we accepted
    std::map<int, Demand> demand;  ///< sender -> what we want from it
    std::map<int, ChannelLedger> ledger;  ///< receiver -> our offers
    std::map<int, int> matches;  ///< sender -> accepted channels
  };

  void gc_epochs(std::uint64_t current);
  void snapshot_demand(Epoch& ep);
  void run_request_stage(std::uint64_t m, int round);
  /// Buffers `offer` for the stage in `slot` of epoch m, or the same role's
  /// first later stage that has not started, and schedules that stage once.
  void buffer_offer(std::uint64_t m, int slot, const Offer& offer);
  /// Runs a grant (odd slot) or accept (even slot) stage over its offers.
  void run_stage(std::uint64_t m, int slot);
  /// Each returns the channels it granted or accepted, at most `spare`.
  int send_grant(Epoch& ep, std::uint64_t m, int round, const Offer& req,
                 int spare);
  int send_accept(Epoch& ep, std::uint64_t m, int round, const Offer& offer,
                  int spare);
  /// Channels that carry `pending` bytes in one data phase, at most `cap`.
  int channels_for(Bytes pending, int cap) const;

  // === sender side ===========================================================
  /// Held until the receiver acks the finish.
  struct TxFlow : net::FlowState {
    net::SeqBitmap sent;  ///< distinct seqs transmitted
    bool notify_acked = false;
    bool finish_sent = false;
    int notify_retx = 0;
    int finish_retx = 0;
  };

  void send_notification(const net::Flow& flow, bool retransmit);
  void maybe_send_finish(const net::Flow& flow, TxFlow& tx);
  void schedule_notify_timer(std::uint64_t flow_id);
  void schedule_finish_timer(std::uint64_t flow_id);
  void handle_request(const RequestPacket& req);
  void handle_accept(const AcceptPacket& acc);
  /// What the sender's pacer keeps of a received token.
  struct QueuedToken {
    std::uint64_t flow_id = 0;  ///< flow whose packet is admitted
    std::uint64_t phase = 0;    ///< data phase the token belongs to
    std::uint32_t seq = 0;      ///< admitted data packet index
    std::uint8_t priority = 0;  ///< priority the data should use
  };

  void handle_token(const TokenPacket& tok);
  /// Sender-side data pacer (§3.2): one admitted packet per MTU time, with
  /// stale tokens discarded at pop time (phase end + cRTT/2 grace).
  void sender_pacer_tick();
  /// Whether a token of data phase `phase` is stale now.
  bool token_expired(std::uint64_t phase) const;
  void transmit_for_token(const QueuedToken& tok);

  // === receiver side =========================================================
  struct RxFlow : net::FlowState {
    std::uint32_t next_new_seq = 0;  ///< next never-admitted seq
    sim::Ring<std::uint32_t> readmit;  ///< lost-token seqs to re-admit
    TokenLedger outstanding;  ///< issued tokens not yet answered by data
    bool needs_matching = false;  ///< long flow, or rescued short flow
    /// Orphan-rescue deadline for a short flow whose data raced ahead of
    /// its notification: no check_short_flow timer was armed (the
    /// notification takes the duplicate early-return), so epoch_tick
    /// sweeps overdue incomplete flows into the matching path instead.
    /// kTimeUnset for flows covered by the notification-path timer.
    TimePoint rescue_deadline = kTimeUnset;
  };

  struct ActiveMatch {
    int sender = -1;
    int channels = 0;
    std::uint64_t skipped_ticks = 0;  ///< pacer ticks with nothing to send
  };

  void handle_notification(const NotificationPacket& note);
  void handle_finish(const FinishPacket& fin);
  void handle_data(net::PacketPtr p);
  void handle_grant(const GrantPacket& grant);
  void start_data_phase(std::uint64_t m);
  void token_tick(std::uint64_t phase, std::size_t match_idx);
  bool issue_token(ActiveMatch& match);
  /// Creates the receiver record of `flow`; a long flow also joins
  /// rx_by_sender_ for matching.
  RxFlow& create_rx(net::Flow& flow);
  /// index[host], sizing `index` to the host count on first use.
  template <typename T>
  T& by_host(std::vector<T>& index, int host);
  void check_short_flow(std::uint64_t flow_id);
  /// Epoch-boundary sweep over RxFlow::rescue_deadline (see there). Rides
  /// the existing epoch_tick event on purpose: the no-orphan common case
  /// schedules nothing, so clean-run event streams are byte-identical.
  void rescue_overdue_short_flows();
  std::uint8_t data_priority_for(Bytes remaining) const;

  Bytes flow_remaining(const net::Flow& flow) const;

  // === members ================================================================
  const DcpimConfig cfg_;
  mutable Time stage_length_{};  ///< stage_length() once known, else 0
  mutable Time epoch_length_{};  ///< epoch_length() once known, else 0
  Time jitter_{};
  Counters counters_;
  EpochAuditHook epoch_audit_hook_;

  /// Live TxFlow records per receiver host id (request admission). Sized
  /// to the host count on first use.
  std::vector<int> tx_per_receiver_;
  /// Sender-side queue of unused tokens, drained at one packet per MTU
  /// transmission time; stale entries expire instead of standing in the
  /// NIC queue (the paper's "discard unused tokens" rule, §3.2).
  sim::Ring<QueuedToken> token_queue_;
  bool sender_pacer_running_ = false;
  /// Ascending ids of the flows holding an RxFlow, the order
  /// audit_token_accounting walks them in.
  std::vector<std::uint64_t> rx_ids_;
  /// Receiver-side index by sender host id: the flow ids from that sender
  /// that (may) need matching. Sized to the host count on first use.
  std::vector<std::vector<std::uint64_t>> rx_by_sender_;
  /// Flow ids carrying a live RxFlow::rescue_deadline, in packet-arrival
  /// order — the sweep rescues in this order, not in flow-id order.
  std::vector<std::uint64_t> rescue_watch_;

  /// Live epochs' matching state; gc_epochs drops those two epochs old.
  std::map<std::uint64_t, Epoch> epochs_;

  /// Token-pacing state for the currently active data phase.
  std::uint64_t active_phase_ = UINT64_MAX;
  std::vector<ActiveMatch> active_matches_;

  /// Receiver-wide count of outstanding tokens across all flows
  /// (introspection/debugging; admission itself is bounded per flow by the
  /// channel-scaled window plus the sender-side stale-token expiry).
  std::size_t outstanding_total_ = 0;
  void forget_outstanding(RxFlow& rx);
};

/// HostFactory for Topology builders; every host gets its own copy of `cfg`.
net::Topology::HostFactory dcpim_host_factory(DcpimConfig cfg);

}  // namespace dcpim::core
