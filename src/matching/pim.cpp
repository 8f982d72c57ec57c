#include "matching/pim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>

#include "util/check.h"

namespace dcpim::matching {

BipartiteGraph::BipartiteGraph(int n)
    : n_(n),
      sender_adj_(static_cast<std::size_t>(n)),
      receiver_adj_(static_cast<std::size_t>(n)) {
  DCPIM_CHECK_GT(n, 0, "bipartite graph needs nodes");
}

void BipartiteGraph::add_edge(int sender, int receiver) {
  DCPIM_DCHECK(sender >= 0 && sender < n_ && receiver >= 0 && receiver < n_,
               "edge endpoints out of range");
  if (has_edge(sender, receiver)) return;
  sender_adj_[static_cast<std::size_t>(sender)].push_back(receiver);
  receiver_adj_[static_cast<std::size_t>(receiver)].push_back(sender);
  ++num_edges_;
}

bool BipartiteGraph::has_edge(int sender, int receiver) const {
  const auto& adj = sender_adj_[static_cast<std::size_t>(sender)];
  return std::find(adj.begin(), adj.end(), receiver) != adj.end();
}

BipartiteGraph BipartiteGraph::random(int n, double avg_degree, Rng& rng) {
  BipartiteGraph g(n);
  const double p = avg_degree / static_cast<double>(n);
  for (int s = 0; s < n; ++s) {
    for (int r = 0; r < n; ++r) {
      if (rng.bernoulli(p)) g.add_edge(s, r);
    }
  }
  return g;
}

BipartiteGraph BipartiteGraph::complete(int n) {
  BipartiteGraph g(n);
  for (int s = 0; s < n; ++s) {
    for (int r = 0; r < n; ++r) g.add_edge(s, r);
  }
  return g;
}

int BipartiteGraph::maximum_matching_size() const {
  // Hopcroft-Karp.
  const int kInf = std::numeric_limits<int>::max();
  std::vector<int> match_s(static_cast<std::size_t>(n_), -1);
  std::vector<int> match_r(static_cast<std::size_t>(n_), -1);
  std::vector<int> dist(static_cast<std::size_t>(n_));

  auto bfs = [&]() {
    std::deque<int> q;
    for (int s = 0; s < n_; ++s) {
      if (match_s[static_cast<std::size_t>(s)] < 0) {
        dist[static_cast<std::size_t>(s)] = 0;
        q.push_back(s);
      } else {
        dist[static_cast<std::size_t>(s)] = kInf;
      }
    }
    bool found = false;
    while (!q.empty()) {
      const int s = q.front();
      q.pop_front();
      for (int r : sender_adj_[static_cast<std::size_t>(s)]) {
        const int next = match_r[static_cast<std::size_t>(r)];
        if (next < 0) {
          found = true;
        } else if (dist[static_cast<std::size_t>(next)] == kInf) {
          dist[static_cast<std::size_t>(next)] =
              dist[static_cast<std::size_t>(s)] + 1;
          q.push_back(next);
        }
      }
    }
    return found;
  };

  std::function<bool(int)> dfs = [&](int s) -> bool {
    for (int r : sender_adj_[static_cast<std::size_t>(s)]) {
      const int next = match_r[static_cast<std::size_t>(r)];
      if (next < 0 || (dist[static_cast<std::size_t>(next)] ==
                           dist[static_cast<std::size_t>(s)] + 1 &&
                       dfs(next))) {
        match_s[static_cast<std::size_t>(s)] = r;
        match_r[static_cast<std::size_t>(r)] = s;
        return true;
      }
    }
    dist[static_cast<std::size_t>(s)] = kInf;
    return false;
  };

  int size = 0;
  while (bfs()) {
    for (int s = 0; s < n_; ++s) {
      if (match_s[static_cast<std::size_t>(s)] < 0 && dfs(s)) ++size;
    }
  }
  return size;
}

int MatchResult::size() const {
  int count = 0;
  for (int r : match_of_sender) {
    if (r >= 0) ++count;
  }
  return count;
}

bool MatchResult::is_valid_matching(const BipartiteGraph& g) const {
  std::vector<bool> receiver_used(static_cast<std::size_t>(g.n()), false);
  for (int s = 0; s < g.n(); ++s) {
    const int r = match_of_sender[static_cast<std::size_t>(s)];
    if (r < 0) continue;
    if (!g.has_edge(s, r)) return false;
    if (receiver_used[static_cast<std::size_t>(r)]) return false;
    receiver_used[static_cast<std::size_t>(r)] = true;
  }
  return true;
}

bool MatchResult::is_maximal(const BipartiteGraph& g) const {
  std::vector<bool> receiver_matched(static_cast<std::size_t>(g.n()), false);
  for (int r : match_of_sender) {
    if (r >= 0) receiver_matched[static_cast<std::size_t>(r)] = true;
  }
  for (int s = 0; s < g.n(); ++s) {
    if (match_of_sender[static_cast<std::size_t>(s)] >= 0) continue;
    for (int r : g.receivers_of(s)) {
      if (!receiver_matched[static_cast<std::size_t>(r)]) return false;
    }
  }
  return true;
}

MatchResult run_pim(const BipartiteGraph& g, int rounds, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.n());
  // One channel of demand per pair; run_channel_pim reads only g's edges.
  const std::vector<std::vector<int>> unit(n, std::vector<int>(n, 1));
  ChannelMatchResult channels = run_channel_pim(g, unit, 1, rounds, rng);
  MatchResult result;
  result.match_of_sender.assign(n, -1);
  for (const auto& e : channels.matches) {
    result.match_of_sender[static_cast<std::size_t>(e.sender)] = e.receiver;
  }
  result.size_after_round = std::move(channels.channels_after_round);
  return result;
}

MatchResult run_islip(const BipartiteGraph& g, int rounds) {
  const int n = g.n();
  MatchResult result;
  result.match_of_sender.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> match_of_receiver(static_cast<std::size_t>(n), -1);
  std::vector<int> grant_ptr(static_cast<std::size_t>(n), 0);   // per sender
  std::vector<int> accept_ptr(static_cast<std::size_t>(n), 0);  // per receiver

  std::vector<std::vector<int>> requests(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> grants(static_cast<std::size_t>(n));

  auto pick_round_robin = [n](const std::vector<int>& candidates, int ptr) {
    // Lowest candidate >= ptr, wrapping.
    int best = -1;
    int best_key = 2 * n;
    for (int c : candidates) {
      const int key = c >= ptr ? c - ptr : c - ptr + n;
      if (key < best_key) {
        best_key = key;
        best = c;
      }
    }
    return best;
  };

  for (int round = 0; round < rounds; ++round) {
    for (auto& v : requests) v.clear();
    for (int r = 0; r < n; ++r) {
      if (match_of_receiver[static_cast<std::size_t>(r)] >= 0) continue;
      for (int s : g.senders_of(r)) {
        if (result.match_of_sender[static_cast<std::size_t>(s)] < 0) {
          requests[static_cast<std::size_t>(s)].push_back(r);
        }
      }
    }
    for (auto& v : grants) v.clear();
    for (int s = 0; s < n; ++s) {
      const auto& reqs = requests[static_cast<std::size_t>(s)];
      if (reqs.empty()) continue;
      const int r = pick_round_robin(reqs, grant_ptr[static_cast<std::size_t>(s)]);
      grants[static_cast<std::size_t>(r)].push_back(s);
    }
    for (int r = 0; r < n; ++r) {
      const auto& grs = grants[static_cast<std::size_t>(r)];
      if (grs.empty()) continue;
      const int s = pick_round_robin(grs, accept_ptr[static_cast<std::size_t>(r)]);
      result.match_of_sender[static_cast<std::size_t>(s)] = r;
      match_of_receiver[static_cast<std::size_t>(r)] = s;
      // iSLIP pointer update: advance one past the matched partner, only on
      // a completed accept.
      grant_ptr[static_cast<std::size_t>(s)] = (r + 1) % n;
      accept_ptr[static_cast<std::size_t>(r)] = (s + 1) % n;
    }
    result.size_after_round.push_back(result.size());
  }
  return result;
}

int ChannelMatchResult::total_channels() const {
  int total = 0;
  for (const auto& e : matches) total += e.channels;
  return total;
}

ChannelMatchResult run_channel_pim(
    const BipartiteGraph& g, const std::vector<std::vector<int>>& demand,
    int k, int rounds, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.n());
  ChannelMatchResult result;
  result.sender_channels.assign(n, 0);
  result.receiver_channels.assign(n, 0);
  // Outstanding demand shrinks as channels are accepted (§3.4: the receiver
  // updates outstanding bytes for accepted channels).
  std::vector<std::vector<int>> remaining = demand;
  int total = 0;

  std::vector<std::vector<Offer>> requests(n);  // per sender
  std::vector<std::vector<Offer>> grants(n);    // per receiver

  for (int round = 0; round < rounds; ++round) {
    // Request: receivers with spare channels request from every sender they
    // still have demand for, asking for min(demand, spare capacity).
    for (auto& v : requests) v.clear();
    for (std::size_t r = 0; r < n; ++r) {
      const int spare = k - result.receiver_channels[r];
      if (spare <= 0) continue;
      for (int s : g.senders_of(static_cast<int>(r))) {
        const int want =
            std::min(spare, remaining[static_cast<std::size_t>(s)][r]);
        if (want > 0) {
          requests[static_cast<std::size_t>(s)].push_back(
              Offer{static_cast<int>(r), want});
        }
      }
    }
    // Grant: each sender grants random requests until its k channels fill.
    for (auto& v : grants) v.clear();
    for (std::size_t s = 0; s < n; ++s) {
      take_offers(requests[s], k - result.sender_channels[s], rng,
                  std::nullopt, [&](const Offer& req, int spare) {
                    const int give = std::min(spare, req.channels);
                    grants[static_cast<std::size_t>(req.peer)].push_back(
                        Offer{static_cast<int>(s), give});
                    return give;
                  });
    }
    // Accept: each receiver accepts random grants until its channels fill.
    for (std::size_t r = 0; r < n; ++r) {
      take_offers(grants[r], k - result.receiver_channels[r], rng,
                  std::nullopt, [&](const Offer& grant, int spare) {
                    const auto s = static_cast<std::size_t>(grant.peer);
                    const int take = std::min(spare, grant.channels);
                    result.receiver_channels[r] += take;
                    result.sender_channels[s] += take;
                    remaining[s][r] -= take;  // take <= this round's want
                    total += take;
                    return take;
                  });
    }
    result.channels_after_round.push_back(total);
  }

  // One entry per pair, however many rounds it matched in: a sender regains
  // the spare other receivers declined and may grant the same receiver again.
  for (std::size_t s = 0; s < n; ++s) {
    for (int r : g.receivers_of(static_cast<int>(s))) {
      const auto ri = static_cast<std::size_t>(r);
      const int channels = demand[s][ri] - remaining[s][ri];
      if (channels > 0) {
        result.matches.push_back({static_cast<int>(s), r, channels});
      }
    }
  }
  return result;
}

double theorem1_bound(int n, double avg_degree, double m_star, int rounds) {
  const double alpha = static_cast<double>(n) / m_star;
  const double factor =
      1.0 - avg_degree * alpha / std::pow(4.0, static_cast<double>(rounds));
  return m_star * std::max(0.0, factor);
}

}  // namespace dcpim::matching
