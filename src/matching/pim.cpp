#include "matching/pim.h"

#include <algorithm>
#include "util/check.h"
#include <cmath>
#include <deque>
#include <functional>
#include <limits>

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
  const int n = g.n();
  MatchResult result;
  result.match_of_sender.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> match_of_receiver(static_cast<std::size_t>(n), -1);

  std::vector<std::vector<int>> requests(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> grants(static_cast<std::size_t>(n));

  for (int round = 0; round < rounds; ++round) {
    // Request stage: unmatched receivers request every unmatched neighbour
    // sender (dcPIM role convention, §3.1).
    for (auto& v : requests) v.clear();
    for (int r = 0; r < n; ++r) {
      if (match_of_receiver[static_cast<std::size_t>(r)] >= 0) continue;
      for (int s : g.senders_of(r)) {
        if (result.match_of_sender[static_cast<std::size_t>(s)] < 0) {
          requests[static_cast<std::size_t>(s)].push_back(r);
        }
      }
    }
    // Grant stage: each unmatched sender grants one request at random.
    for (auto& v : grants) v.clear();
    for (int s = 0; s < n; ++s) {
      auto& reqs = requests[static_cast<std::size_t>(s)];
      if (reqs.empty()) continue;
      const int r = reqs[rng.uniform_int(reqs.size())];
      grants[static_cast<std::size_t>(r)].push_back(s);
    }
    // Accept stage: each receiver accepts one grant at random.
    for (int r = 0; r < n; ++r) {
      auto& grs = grants[static_cast<std::size_t>(r)];
      if (grs.empty()) continue;
      const int s = grs[static_cast<std::size_t>(rng.uniform_int(grs.size()))];
      result.match_of_sender[static_cast<std::size_t>(s)] = r;
      match_of_receiver[static_cast<std::size_t>(r)] = s;
    }
    result.size_after_round.push_back(result.size());
  }
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
  const int n = g.n();
  ChannelMatchResult result;
  result.sender_channels.assign(static_cast<std::size_t>(n), 0);
  result.receiver_channels.assign(static_cast<std::size_t>(n), 0);
  // Outstanding demand shrinks as channels are accepted (§3.4: the receiver
  // updates outstanding bytes for accepted channels).
  std::vector<std::vector<int>> remaining = demand;
  std::vector<std::vector<std::pair<int, int>>> accepted(
      static_cast<std::size_t>(n));  // per sender: (receiver, channels)

  struct Req {
    int receiver;
    int channels;
  };
  std::vector<std::vector<Req>> requests(static_cast<std::size_t>(n));
  struct Grant {
    int sender;
    int channels;
  };
  std::vector<std::vector<Grant>> grants(static_cast<std::size_t>(n));

  for (int round = 0; round < rounds; ++round) {
    // Request: receivers with spare channels request from every sender they
    // still have demand for, asking for min(demand, spare capacity).
    for (auto& v : requests) v.clear();
    for (int r = 0; r < n; ++r) {
      const int spare = k - result.receiver_channels[static_cast<std::size_t>(r)];
      if (spare <= 0) continue;
      for (int s : g.senders_of(r)) {
        const int want = std::min(
            spare,
            remaining[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)]);
        if (want > 0) {
          requests[static_cast<std::size_t>(s)].push_back(Req{r, want});
        }
      }
    }
    // Grant: each sender grants random requests until its k channels fill.
    for (auto& v : grants) v.clear();
    for (int s = 0; s < n; ++s) {
      auto& reqs = requests[static_cast<std::size_t>(s)];
      int spare = k - result.sender_channels[static_cast<std::size_t>(s)];
      while (spare > 0 && !reqs.empty()) {
        const std::size_t pick = rng.uniform_int(reqs.size());
        const Req req = reqs[pick];
        reqs[pick] = reqs.back();
        reqs.pop_back();
        const int give = std::min(spare, req.channels);
        grants[static_cast<std::size_t>(req.receiver)].push_back(
            Grant{s, give});
        spare -= give;
      }
    }
    // Accept: each receiver accepts random grants until its channels fill.
    for (int r = 0; r < n; ++r) {
      auto& grs = grants[static_cast<std::size_t>(r)];
      while (!grs.empty()) {
        int& rcap = result.receiver_channels[static_cast<std::size_t>(r)];
        if (rcap >= k) break;
        const std::size_t pick = rng.uniform_int(grs.size());
        const Grant gr = grs[pick];
        grs[pick] = grs.back();
        grs.pop_back();
        const int take = std::min(k - rcap, gr.channels);
        rcap += take;
        result.sender_channels[static_cast<std::size_t>(gr.sender)] += take;
        accepted[static_cast<std::size_t>(gr.sender)].push_back({r, take});
        auto& rem = remaining[static_cast<std::size_t>(gr.sender)]
                             [static_cast<std::size_t>(r)];
        rem = std::max(0, rem - take);
      }
    }
  }

  for (int s = 0; s < n; ++s) {
    for (const auto& [r, c] : accepted[static_cast<std::size_t>(s)]) {
      result.matches.push_back(ChannelMatchResult::Edge{s, r, c});
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
