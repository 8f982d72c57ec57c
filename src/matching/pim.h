// Standalone bipartite matching library: classic PIM (Anderson et al.) and
// the dcPIM multi-channel variant the paper builds on.
//
// This module is independent of the packet simulator — it operates on
// abstract bipartite demand graphs and is used to (a) validate Theorem 1
// empirically (bench/theorem1_matching), (b) property-test the matching
// invariants the end-to-end protocol relies on, and (c) demo PIM itself
// (examples/pim_matching.cpp reproduces Figure 1). Its grant and accept
// stages run `take_offers`, the same routine DcpimHost's stages run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace dcpim::matching {

/// Bipartite demand graph: `n` senders and `n` receivers; an edge (s, r)
/// means sender s has outstanding data for receiver r.
class BipartiteGraph {
 public:
  explicit BipartiteGraph(int n);

  int n() const { return n_; }
  void add_edge(int sender, int receiver);
  bool has_edge(int sender, int receiver) const;

  const std::vector<int>& receivers_of(int sender) const {
    return sender_adj_[static_cast<std::size_t>(sender)];
  }
  const std::vector<int>& senders_of(int receiver) const {
    return receiver_adj_[static_cast<std::size_t>(receiver)];
  }

  std::size_t num_edges() const { return num_edges_; }
  /// Average degree over the n senders (== over the n receivers).
  double average_degree() const {
    return static_cast<double>(num_edges_) / static_cast<double>(n_);
  }
  int degree(int sender) const {
    return static_cast<int>(sender_adj_[static_cast<std::size_t>(sender)].size());
  }

  /// Erdos-Renyi-style random demand graph with expected average degree
  /// `avg_degree`: each of the n^2 possible edges exists independently.
  static BipartiteGraph random(int n, double avg_degree, Rng& rng);

  /// Full n x n demand (the paper's dense-TM microbenchmark).
  static BipartiteGraph complete(int n);

  /// Size of a maximum matching (Hopcroft-Karp); the optimum PIM chases.
  int maximum_matching_size() const;

 private:
  int n_;
  std::size_t num_edges_ = 0;
  std::vector<std::vector<int>> sender_adj_;
  std::vector<std::vector<int>> receiver_adj_;
};

/// Result of running an iterative matching protocol.
struct MatchResult {
  /// match_of_sender[s] = matched receiver, or -1.
  std::vector<int> match_of_sender;
  /// Matching size after each completed round (size == rounds executed).
  std::vector<int> size_after_round;

  int size() const;
  /// True iff no unmatched sender-receiver pair shares an edge (maximality).
  bool is_maximal(const BipartiteGraph& g) const;
  bool is_valid_matching(const BipartiteGraph& g) const;
};

/// A request (at a sender) or a grant (at a receiver) that one grant or
/// accept stage may take.
struct Offer {
  int peer = -1;     ///< the node that sent it
  int channels = 0;  ///< channels wanted (request) or granted (grant)
  Bytes min_remaining{};  ///< the receiver's smallest flow: FCT-opt key
};

/// One grant or accept stage (§3.3), shared by DcpimHost and run_channel_pim:
/// calls `take(offer, spare_left)` on one offer at a time until `spare`
/// channels are handed out or the offers run out. `take` returns the
/// channels it took (<= spare_left); a 0 moves on to the next offer. Offers
/// not reached stay in `offers`. Draws nothing when `spare <= 0` or `offers`
/// is empty.
///
/// Each pick is a uniform draw or, with `fct_cap` (the FCT-optimizing round,
/// §3.5), index 0 after a shuffle and a stable sort by
/// min(min_remaining, *fct_cap), so ties break randomly. The taken slot is
/// refilled from the back, so the FCT round takes the smallest clamped key
/// first and the rest from the largest key down.
template <typename Take>
void take_offers(std::vector<Offer>& offers, int spare, Rng& rng,
                 std::optional<Bytes> fct_cap, Take&& take) {
  if (spare <= 0 || offers.empty()) return;
  if (fct_cap) {
    for (std::size_t i = offers.size(); i > 1; --i) {
      std::swap(offers[i - 1], offers[rng.uniform_int(i)]);
    }
    std::stable_sort(offers.begin(), offers.end(),
                     [cap = *fct_cap](const Offer& a, const Offer& b) {
                       return std::min(a.min_remaining, cap) <
                              std::min(b.min_remaining, cap);
                     });
  }
  while (spare > 0 && !offers.empty()) {
    const std::size_t pick = fct_cap ? 0 : rng.uniform_int(offers.size());
    const Offer offer = offers[pick];
    offers[pick] = offers.back();
    offers.pop_back();
    spare -= take(offer, spare);
  }
}

/// Classic PIM: each round, unmatched receivers*(1) request their neighbour
/// senders; unmatched senders grant one request uniformly at random;
/// receivers accept one grant uniformly at random. It is run_channel_pim
/// with one channel per node and one channel of demand per edge, so it runs
/// the same `take_offers` stages.
///
/// (1) Roles follow the dcPIM convention (§3.1): *receivers* issue requests
/// to senders with outstanding data, senders grant, receivers accept. This
/// is the mirror image of switch-fabric PIM and matches the protocol the
/// simulator implements.
MatchResult run_pim(const BipartiteGraph& g, int rounds, Rng& rng);

/// dcPIM multi-channel matching (§3.4): every node has k channels; demands
/// carry channel counts. Returns per-pair matched channel counts.
struct ChannelMatchResult {
  /// (sender, receiver, channels) triples with channels >= 1, one per pair.
  struct Edge {
    int sender;
    int receiver;
    int channels;
  };
  std::vector<Edge> matches;
  std::vector<int> sender_channels;    ///< total matched channels per sender
  std::vector<int> receiver_channels;  ///< total matched channels per receiver
  /// Matched channels after each completed round (size == rounds executed).
  std::vector<int> channels_after_round;

  int total_channels() const;
};

/// demand[s][r] = channels sender s could fill toward receiver r (0 = no
/// demand); only pairs that are edges of `g` are considered.
ChannelMatchResult run_channel_pim(const BipartiteGraph& g,
                                   const std::vector<std::vector<int>>& demand,
                                   int k, int rounds, Rng& rng);

/// iSLIP (McKeown '99): deterministic round-robin pointers instead of
/// random choices. Converges in one iteration on uniform traffic once the
/// pointers desynchronize, but — as §5 of the dcPIM paper notes — its
/// guarantees lean on workload assumptions: with synchronized pointers
/// (fresh switch, structured demand) early rounds herd onto the same
/// receivers where PIM's randomization does not.
///
/// Pointers are per sender (grant) and per receiver (accept), advanced past
/// the partner only when an accept completes (the iSLIP pointer-update
/// rule). `rounds` iterations are run on one static demand snapshot.
MatchResult run_islip(const BipartiteGraph& g, int rounds);

/// Theorem 1 lower bound on expected matching size after r rounds, given
/// the converged PIM matching size m_star (= n/alpha) and average degree.
double theorem1_bound(int n, double avg_degree, double m_star, int rounds);

}  // namespace dcpim::matching
