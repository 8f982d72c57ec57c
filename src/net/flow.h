// Flow records and receiver-side reassembly bookkeeping.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/time.h"
#include "util/units.h"

namespace dcpim::net {

struct Flow;

/// Tracks which data packets of a flow the receiver has seen, deduplicating
/// retransmissions, and detects completion.
class FlowRxState {
 public:
  FlowRxState(Flow* flow, Bytes mtu_payload);

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
  Bytes mtu_payload_{1460};
  std::uint32_t first_missing_ = 0;  ///< cursor maintained by on_data()
  std::vector<bool> seen_;
  std::size_t received_count_ = 0;
  Bytes received_bytes_{};
};

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

  bool finished() const { return finish_time != kTimeUnset; }
  Time fct() const { return finish_time - start_time; }

  /// Number of MTU-payload-sized data packets for this flow.
  PacketCount packet_count(Bytes mtu_payload) const {
    return PacketCount{(size + mtu_payload - Bytes{1}) / mtu_payload};
  }

  /// Payload carried by data packet `seq` (last packet may be short).
  Bytes payload_of(std::uint32_t seq, Bytes mtu_payload) const {
    const Bytes offset = mtu_payload * seq;
    const Bytes remaining = size - offset;
    return remaining < mtu_payload ? remaining : mtu_payload;
  }
};

inline FlowRxState::FlowRxState(Flow* flow, Bytes mtu_payload)
    : flow_(flow),
      mtu_payload_(mtu_payload),
      // sa-ok(unit-raw): vector sizing takes a bare count
      seen_(static_cast<std::size_t>(flow->packet_count(mtu_payload).raw()),
            false) {}

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
  const Bytes got = flow_->payload_of(seq, mtu_payload_);
  received_bytes_ += got;
  return got;
}

}  // namespace dcpim::net
