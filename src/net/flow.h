// Flow records and receiver-side reassembly bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "net/config.h"
#include "util/check.h"
#include "util/time.h"
#include "util/units.h"

namespace dcpim::net {

struct Flow;

/// Tracks which data packets of a flow the receiver has seen, deduplicating
/// retransmissions, and detects completion.
class FlowRxState {
 public:
  explicit FlowRxState(Flow* flow);

  /// Records receipt of packet `seq`; returns the number of *new* payload
  /// bytes (0 for duplicates).
  Bytes on_data(std::uint32_t seq);

  bool has(std::uint32_t seq) const { return seq < seen_.size() && seen_[seq]; }
  bool complete() const { return received_count_ == seen_.size(); }
  Bytes received_bytes() const { return received_bytes_; }
  std::uint32_t received_count() const {
    return static_cast<std::uint32_t>(received_count_);
  }
  std::uint32_t total_packets() const {
    return static_cast<std::uint32_t>(seen_.size());
  }

  /// Lowest seq not yet received (== total_packets() when complete).
  std::uint32_t first_missing() const { return first_missing_; }

 private:
  Flow* flow_ = nullptr;
  std::uint32_t first_missing_ = 0;  ///< cursor maintained by on_data()
  std::vector<bool> seen_;
  std::size_t received_count_ = 0;
  Bytes received_bytes_{};
};

/// Membership bitmap over a flow's data-packet sequence space, with a
/// count of its members: which seqs a sender has sent (dcPIM) or seen
/// acked (NDP, the window family). Out-of-range seqs are treated as absent
/// and ignored on insert.
class SeqBitmap {
 public:
  void reset(std::uint32_t universe) {
    bits_.assign(universe, false);
    count_ = 0;
  }
  void insert(std::uint32_t seq) {
    if (seq < bits_.size() && !bits_[seq]) {
      bits_[seq] = true;
      ++count_;
    }
  }
  bool contains(std::uint32_t seq) const {
    return seq < bits_.size() && bits_[seq];
  }
  std::uint32_t size() const { return count_; }

 private:
  std::vector<bool> bits_;
  std::uint32_t count_ = 0;
};

/// A transport's per-flow record at one end of a flow. Each transport
/// derives its sender and receiver records from it; the Flow owns them
/// (Flow::sender_state / receiver_state) and Host's create_state,
/// find_state and release_state reach them.
struct FlowState {
  FlowState() = default;
  FlowState(const FlowState&) = delete;
  FlowState& operator=(const FlowState&) = delete;
  FlowState(FlowState&&) = delete;
  FlowState& operator=(FlowState&&) = delete;
  virtual ~FlowState() = default;
};

/// Downcast of a transport record to the transport's own type, the
/// FlowState counterpart of packet_cast.
template <typename T>
T* state_cast(FlowState* state) {
  static_assert(std::is_base_of_v<FlowState, T>);
  DCPIM_DCHECK(state == nullptr || dynamic_cast<T*>(state) != nullptr,
               "flow record read as another transport's type");
  return static_cast<T*>(state);
}

/// One application flow (message) from src host to dst host.
struct Flow {
  std::uint64_t id = 0;
  int src = -1;
  int dst = -1;
  Bytes size{};           ///< application bytes to deliver
  TimePoint start_time{};  ///< arrival at the sender
  TimePoint finish_time = kTimeUnset;  ///< completion; kTimeUnset while active
  /// Reassembly state at `dst`, the only host that receives the flow's
  /// data; created by Host::accept_data on the first data packet.
  std::optional<FlowRxState> rx{};
  /// The transport's record at `src` and at `dst`, null until that end
  /// creates it and again once it releases it.
  std::unique_ptr<FlowState> sender_state{};
  std::unique_ptr<FlowState> receiver_state{};

  bool finished() const { return finish_time != kTimeUnset; }
  Time fct() const { return finish_time - start_time; }

  /// Number of MTU-payload-sized data packets for this flow.
  PacketCount packet_count() const {
    return PacketCount{(size + kMtuPayload - Bytes{1}) / kMtuPayload};
  }

  /// packet_count() as the size of the flow's uint32 sequence space.
  std::uint32_t seq_count() const {
    // sa-ok(unit-raw): data seq numbers are raw uint32 indices on the wire
    return static_cast<std::uint32_t>(packet_count().raw());
  }

  /// Payload carried by data packet `seq` (last packet may be short).
  Bytes payload_of(std::uint32_t seq) const {
    const Bytes offset = kMtuPayload * seq;
    const Bytes remaining = size - offset;
    return remaining < kMtuPayload ? remaining : kMtuPayload;
  }
};

inline FlowRxState::FlowRxState(Flow* flow)
    : flow_(flow),
      seen_(flow->seq_count(), false) {}

inline Bytes FlowRxState::on_data(std::uint32_t seq) {
  if (seq >= seen_.size() || seen_[seq]) return Bytes{};
  seen_[seq] = true;
  ++received_count_;
  // Advance the cached first-missing cursor past the contiguous prefix.
  // Each bit is crossed at most once over the flow's lifetime, so the
  // cumulative-ack lookup below stays amortized O(1) per packet instead
  // of rescanning the prefix on every ack.
  while (first_missing_ < seen_.size() && seen_[first_missing_]) {
    ++first_missing_;
  }
  const Bytes got = flow_->payload_of(seq);
  received_bytes_ += got;
  return got;
}

}  // namespace dcpim::net
