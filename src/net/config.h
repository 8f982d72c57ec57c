// Network-wide and per-port configuration (Table 1 of the paper).
#pragma once

#include <cstdint>

#include "util/time.h"
#include "util/units.h"

namespace dcpim::net {

inline constexpr int kNumPriorities = 8;

// Packet sizes and fixed latencies of the fabric (Table 1).
/// Application bytes per full data packet.
inline constexpr Bytes kMtuPayload{1460};
/// Per-packet wire overhead.
inline constexpr Bytes kHeaderBytes{40};
/// Wire size of a full data packet.
inline constexpr Bytes kMtuWire = kMtuPayload + kHeaderBytes;
/// Wire size of a control packet.
inline constexpr Bytes kControlPacketBytes{64};
/// Per-switch processing delay.
inline constexpr Time kSwitchLatency = ns(450);
/// End-host ingress (NIC/stack) delay.
inline constexpr Time kHostLatency = ns(500);

/// How a switch spreads a multi-path destination across its equal-cost
/// next hops (Switch::select_egress). Spray and EcmpFlow reproduce the
/// paper's two forwarding modes; Flowlet and EcmpWeighted are the
/// survivability study's degraded-topology policies (ROADMAP item 5).
enum class LbPolicy {
  kSpray,         ///< per-packet uniform random (workload RNG, paper default)
  kEcmpFlow,      ///< static per-flow hash
  kFlowlet,       ///< per-flow hash, re-drawn after an idle gap (flowlet_gap)
  kEcmpWeighted,  ///< per-packet draw weighted by current egress link rates
};

const char* to_string(LbPolicy policy);

/// Per-egress-port behaviour knobs. Defaults model a commodity
/// shared-buffer switch port as in Table 1; protocols flip individual
/// features (ECN for DCTCP, trimming for NDP, ...). The fields that
/// Port::enqueue and Port::try_transmit read per packet come first and
/// fill one 64-byte line.
struct PortConfig {
  BitsPerSec rate = 100 * kGbps;
  Bytes buffer_bytes = 500 * kKB;  ///< shared across priorities; <0 = infinite

  /// ECN: mark CE on enqueue when queued bytes >= threshold. <0 disables.
  Bytes ecn_threshold{-1};

  /// NDP packet trimming: when the *data* queue for a packet's priority
  /// exceeds trim_queue_cap bytes, the payload is cut and the header is
  /// forwarded at the control priority. Disabled unless trim_enable.
  Bytes trim_queue_cap{8 * 1500};

  /// Aeolus selective dropping: drop *unscheduled* packets arriving when
  /// the queue exceeds this threshold. <0 disables.
  Bytes aeolus_threshold{-1};

  /// Random loss injection for failure tests (probability per packet).
  double loss_rate = 0.0;

  /// Gray failure: silent Bernoulli loss (probability per packet) that
  /// raises no link-down signal and is attributed as DropReason::kGrayLoss
  /// rather than kInjectedLoss. Driven by FaultKind::GrayLoss windows.
  double gray_loss_rate = 0.0;

  bool trim_enable = false;  ///< NDP trimming (trim_queue_cap above)

  /// PFC (used by the HPCC substrate): pause the upstream egress port when
  /// the bytes buffered from that ingress exceed pause_threshold.
  bool pfc_enable = false;
  Bytes pfc_pause_threshold = 100 * kKB;
  Bytes pfc_resume_threshold = 60 * kKB;

  Time propagation = ns(200);
};

/// Network-wide settings.
struct NetConfig {
  /// Multi-path forwarding policy.
  LbPolicy lb_policy = LbPolicy::kSpray;
  /// Flowlet policy only: idle gap after which a flow's next hop re-draws.
  Time flowlet_gap = us(5);
  /// Recycle data packets through the Network's PacketPool instead of
  /// heap-allocating each one. Behaviour-invariant by contract (results must
  /// fingerprint identically either way); off exists for that A/B check and
  /// for allocator-level debugging (e.g. ASan use-after-free pinpointing).
  bool packet_pool = true;
  std::uint64_t seed = 1;
};

}  // namespace dcpim::net
