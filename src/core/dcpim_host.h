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
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/dcpim_config.h"
#include "core/dcpim_packets.h"
#include "net/host.h"
#include "net/topology.h"

namespace dcpim::core {

class DcpimHost : public net::Host {
 public:
  DcpimHost(net::Network& net, int host_id, const net::PortConfig& nic,
            const DcpimConfig& cfg);

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
  const DcpimConfig& protocol_config() const { return cfg_; }

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
  Time period() const;  ///< epoch period P (E pipelined, 2E sequential)
  TimePoint matching_start(std::uint64_t m) const;
  TimePoint data_phase_start(std::uint64_t m) const;
  Bytes channel_bytes_per_phase() const;
  std::uint32_t window_packets(int channels) const;

  void epoch_tick(std::uint64_t m);

  // === sender-side state ====================================================
  struct TxFlow {
    net::Flow* flow = nullptr;
    std::uint32_t packets = 0;
    std::vector<bool> sent;       ///< distinct seqs transmitted
    std::uint32_t sent_count = 0;
    bool is_short = false;
    bool notify_acked = false;
    bool finish_sent = false;
    bool finish_acked = false;
    int notify_retx = 0;
    int finish_retx = 0;
  };

  struct SenderEpochState {
    int matched_channels = 0;
    /// Requests buffered per round, drained by the grant-stage event.
    std::map<int, std::vector<RequestPacket>> requests;
    std::map<int, bool> grant_stage_scheduled;
    /// Per-receiver channel ledger for the double-spend audit: `granted`
    /// counts offers extended across all grant stages of this epoch,
    /// `accepted` counts the channels each receiver claimed back. Offers
    /// that lose the accept race go unclaimed, so Σ granted may exceed
    /// Σ accepted — but no receiver may ever claim more than it was
    /// offered (audit_channel_ledger).
    std::map<int, int> granted;   ///< receiver -> channels offered
    std::map<int, int> accepted;  ///< receiver -> channels claimed
  };

  void send_notification(TxFlow& tx, bool retransmit);
  void maybe_send_finish(TxFlow& tx);
  void schedule_notify_timer(std::uint64_t flow_id);
  void schedule_finish_timer(std::uint64_t flow_id);
  void handle_request(const RequestPacket& req);
  void run_grant_stage(std::uint64_t m, int round);
  void handle_accept(const AcceptPacket& acc);
  void handle_token(const TokenPacket& tok);
  /// Sender-side data pacer (§3.2): one admitted packet per MTU time, with
  /// stale tokens discarded at pop time (phase end + cRTT/2 grace).
  void sender_pacer_tick();
  bool token_expired(const TokenPacket& tok) const;
  void transmit_for_token(const TokenPacket& tok);

  // === receiver-side state ===================================================
  struct RxFlow {
    net::Flow* flow = nullptr;
    std::uint32_t packets = 0;
    std::uint32_t next_new_seq = 0;  ///< next never-admitted seq
    std::deque<std::uint32_t> readmit;  ///< lost-token seqs to re-admit
    std::map<std::uint32_t, TimePoint> outstanding;  ///< token->sent instant
    bool needs_matching = false;  ///< long flow, or rescued short flow
    /// Orphan-rescue deadline for a short flow whose data raced ahead of
    /// its notification: no check_short_flow timer was armed (the
    /// notification takes the duplicate early-return), so epoch_tick
    /// sweeps overdue incomplete flows into the matching path instead.
    /// kTimeUnset for flows covered by the notification-path timer.
    TimePoint rescue_deadline = kTimeUnset;
  };

  struct ReceiverEpochState {
    int matched_channels = 0;
    std::map<int, Bytes> demand;  ///< sender -> pending bytes
    std::map<int, Bytes> min_remaining;  ///< FCT-opt sort key
    std::map<int, std::vector<GrantPacket>> grants;
    std::map<int, bool> accept_stage_scheduled;
    std::map<int, int> matches;  ///< sender -> accepted channels
  };

  struct ActiveMatch {
    int sender = -1;
    int channels = 0;
    std::uint64_t skipped_ticks = 0;  ///< pacer ticks with nothing to send
  };

  void handle_notification(const NotificationPacket& note);
  void handle_finish(const FinishPacket& fin);
  void handle_data(net::PacketPtr p);
  void snapshot_demand(ReceiverEpochState& st);
  void run_request_stage(std::uint64_t m, int round);
  void handle_grant(const GrantPacket& grant);
  void run_accept_stage(std::uint64_t m, int round);
  void start_data_phase(std::uint64_t m);
  void token_tick(std::uint64_t phase, std::size_t match_idx);
  bool issue_token(ActiveMatch& match);
  void check_short_flow(std::uint64_t flow_id);
  /// Epoch-boundary sweep over RxFlow::rescue_deadline (see there). Rides
  /// the existing epoch_tick event on purpose: the no-orphan common case
  /// schedules nothing, so clean-run event streams are byte-identical.
  void rescue_overdue_short_flows();
  std::uint8_t data_priority_for(Bytes remaining) const;

  Bytes flow_remaining(const RxFlow& rx) const;

  SenderEpochState& sender_epoch(std::uint64_t m);
  ReceiverEpochState& receiver_epoch(std::uint64_t m);
  void gc_epochs(std::uint64_t current);

  // === members ================================================================
  /// Shared protocol config. Held by reference: the topology-dependent
  /// fields (control_rtt, bdp_bytes) are filled in by the owner after the
  /// topology is built but before the simulation starts.
  const DcpimConfig& cfg_;
  Time jitter_{};
  Counters counters_;
  EpochAuditHook epoch_audit_hook_;

  std::map<std::uint64_t, TxFlow> tx_flows_;
  /// Sender-side queue of unused tokens, drained at one packet per MTU
  /// transmission time; stale entries expire instead of standing in the
  /// NIC queue (the paper's "discard unused tokens" rule, §3.2).
  std::deque<TokenPacket> token_queue_;
  bool sender_pacer_running_ = false;
  std::map<std::uint64_t, RxFlow> rx_flows_;
  /// Receiver-side index: sender -> flow ids that (may) need matching.
  std::map<int, std::vector<std::uint64_t>> rx_by_sender_;
  /// Flow ids carrying a live RxFlow::rescue_deadline, in packet-arrival
  /// order — the sweep rescues in this order, not in flow-id order.
  std::vector<std::uint64_t> rescue_watch_;

  std::map<std::uint64_t, SenderEpochState> send_epochs_;
  std::map<std::uint64_t, ReceiverEpochState> recv_epochs_;

  /// Token-pacing state for the currently active data phase.
  std::uint64_t active_phase_ = UINT64_MAX;
  std::vector<ActiveMatch> active_matches_;

  /// Receiver-wide count of outstanding tokens across all flows
  /// (introspection/debugging; admission itself is bounded per flow by the
  /// channel-scaled window plus the sender-side stale-token expiry).
  std::size_t outstanding_total_ = 0;
  std::size_t total_window_packets() const;
  void forget_outstanding(RxFlow& rx);
};

/// Topology-aware factory helper: fills control_rtt / bdp into `cfg` and
/// returns a HostFactory for Topology builders. The config must outlive the
/// returned factory. (Two-phase because the topology metrics are only known
/// after build; see make_dcpim_network in harness for the ergonomic path.)
net::Topology::HostFactory dcpim_host_factory(const DcpimConfig& cfg);

}  // namespace dcpim::core
