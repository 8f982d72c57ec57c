// Tests for the standalone PIM matching library — including property-based
// validation of Theorem 1 (the paper's core theoretical result).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "matching/pim.h"
#include "util/rng.h"

namespace dcpim::matching {
namespace {

// ---- graph basics -----------------------------------------------------------

TEST(BipartiteGraphTest, EdgesAndDegrees) {
  BipartiteGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 0);
  g.add_edge(0, 1);  // duplicate ignored
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 0);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.0);
  EXPECT_EQ(g.senders_of(1).size(), 1u);
}

TEST(BipartiteGraphTest, CompleteGraph) {
  auto g = BipartiteGraph::complete(5);
  EXPECT_EQ(g.num_edges(), 25u);
  EXPECT_EQ(g.maximum_matching_size(), 5);
}

TEST(BipartiteGraphTest, RandomGraphHitsTargetDegree) {
  Rng rng(3);
  auto g = BipartiteGraph::random(200, 5.0, rng);
  EXPECT_NEAR(g.average_degree(), 5.0, 1.0);
}

TEST(BipartiteGraphTest, MaximumMatchingKnownCases) {
  // Perfect matching on a cycle-like structure.
  BipartiteGraph g(3);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 1);
  g.add_edge(2, 2);
  EXPECT_EQ(g.maximum_matching_size(), 3);

  // Star: all senders want receiver 0 -> matching size 1.
  BipartiteGraph star(4);
  for (int s = 0; s < 4; ++s) star.add_edge(s, 0);
  EXPECT_EQ(star.maximum_matching_size(), 1);
}

// ---- PIM protocol invariants -------------------------------------------------

TEST(PimTest, ProducesValidMatching) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = BipartiteGraph::random(64, 4.0, rng);
    auto result = run_pim(g, 8, rng);
    EXPECT_TRUE(result.is_valid_matching(g));
  }
}

TEST(PimTest, MatchingSizeMonotoneAcrossRounds) {
  Rng rng(11);
  auto g = BipartiteGraph::random(128, 6.0, rng);
  auto result = run_pim(g, 10, rng);
  for (std::size_t i = 1; i < result.size_after_round.size(); ++i) {
    EXPECT_GE(result.size_after_round[i], result.size_after_round[i - 1]);
  }
}

TEST(PimTest, ConvergesToMaximalMatching) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = BipartiteGraph::random(64, 3.0, rng);
    // log2(64) = 6; give PIM plenty of rounds.
    auto result = run_pim(g, 30, rng);
    EXPECT_TRUE(result.is_maximal(g)) << "trial " << trial;
  }
}

TEST(PimTest, MaximalIsHalfOptimal) {
  // Any maximal matching is >= 1/2 the maximum matching.
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = BipartiteGraph::random(96, 5.0, rng);
    auto result = run_pim(g, 40, rng);
    ASSERT_TRUE(result.is_maximal(g));
    EXPECT_GE(2 * result.size(), g.maximum_matching_size());
  }
}

TEST(PimTest, PerfectMatchOnDiagonalGraph) {
  BipartiteGraph g(32);
  for (int i = 0; i < 32; ++i) g.add_edge(i, i);
  Rng rng(19);
  auto result = run_pim(g, 1, rng);
  // No contention anywhere: one round suffices.
  EXPECT_EQ(result.size(), 32);
}

TEST(PimTest, EmptyGraphMatchesNothing) {
  BipartiteGraph g(8);
  Rng rng(23);
  auto result = run_pim(g, 4, rng);
  EXPECT_EQ(result.size(), 0);
}

// ---- Theorem 1 (property sweep) -------------------------------------------
// E[M_dcPIM after r rounds] >= (1 - delta*alpha/4^r) * M*.

class Theorem1Test
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(Theorem1Test, BoundHolds) {
  const auto [n, avg_degree, rounds] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + rounds));
  const int trials = 30;
  double sum_r = 0, sum_star = 0;
  for (int t = 0; t < trials; ++t) {
    auto g = BipartiteGraph::random(n, avg_degree, rng);
    const int log_rounds =
        static_cast<int>(std::ceil(std::log2(n))) + 4;
    sum_r += run_pim(g, rounds, rng).size();
    sum_star += run_pim(g, log_rounds, rng).size();
  }
  const double m_r = sum_r / trials;
  const double m_star = sum_star / trials;
  if (m_star < 1.0) GTEST_SKIP() << "degenerate graph";
  const double bound = theorem1_bound(n, avg_degree, m_star, rounds);
  // Monte-Carlo slack: the bound is on expectations.
  EXPECT_GE(m_r, bound * 0.95)
      << "n=" << n << " deg=" << avg_degree << " r=" << rounds
      << " m_r=" << m_r << " m*=" << m_star << " bound=" << bound;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1Test,
    ::testing::Combine(::testing::Values(64, 128, 256),
                       ::testing::Values(2.0, 4.0, 8.0),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Theorem1Test, ConstantRoundsSufficeAsNGrows) {
  // The headline claim: with bounded average degree, 4 rounds reach a fixed
  // fraction of the converged matching regardless of n.
  Rng rng(29);
  for (int n : {64, 256, 1024}) {
    const int trials = 10;
    double sum4 = 0, sum_star = 0;
    for (int t = 0; t < trials; ++t) {
      auto g = BipartiteGraph::random(n, 4.0, rng);
      sum4 += run_pim(g, 4, rng).size();
      sum_star +=
          run_pim(g, static_cast<int>(std::ceil(std::log2(n))) + 4, rng)
              .size();
    }
    EXPECT_GE(sum4 / sum_star, 0.9) << "n=" << n;
  }
}

TEST(Theorem1Test, BoundFormulaSpotChecks) {
  // Paper §3.1: one-million servers, avg degree 5, 80% matched by PIM,
  // r=4 -> dcPIM matches > 78% of M*: 1 - 5*(1/0.8)/256 = 0.9756...
  const double m_star = 0.8 * 1e6;
  const double bound = theorem1_bound(1'000'000, 5.0, m_star, 4);
  EXPECT_GT(bound / m_star, 0.975);
  // Paper §4.1 dense-TM: N=144, delta=144, alpha=1.2, r=4 -> ~33% of the
  // maximal matching (the paper reports 32.9%; the closed form gives
  // 1 - 144*1.2/256 = 0.325 of M*).
  const double dense = theorem1_bound(144, 144.0, 120.0, 4);
  EXPECT_NEAR(dense / 120.0, 0.325, 0.01);
}

// ---- multi-channel matching (§3.4) ----------------------------------------

TEST(ChannelPimTest, RespectsChannelCapacities) {
  Rng rng(31);
  const int n = 32, k = 4;
  auto g = BipartiteGraph::random(n, 6.0, rng);
  std::vector<std::vector<int>> demand(
      n, std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int s = 0; s < n; ++s) {
    for (int r : g.receivers_of(s)) {
      demand[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] =
          1 + static_cast<int>(rng.uniform_int(6));
    }
  }
  auto result = run_channel_pim(g, demand, k, 4, rng);
  for (int v : result.sender_channels) EXPECT_LE(v, k);
  for (int v : result.receiver_channels) EXPECT_LE(v, k);
  for (const auto& e : result.matches) {
    EXPECT_TRUE(g.has_edge(e.sender, e.receiver));
    EXPECT_GE(e.channels, 1);
    EXPECT_LE(e.channels,
              demand[static_cast<std::size_t>(e.sender)]
                    [static_cast<std::size_t>(e.receiver)]);
  }
}

class ChannelPimSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChannelPimSweep, CapacityAndDemandRespected) {
  const int k = GetParam();
  Rng rng(static_cast<std::uint64_t>(k) * 101);
  const int n = 40;
  auto g = BipartiteGraph::random(n, 5.0, rng);
  std::vector<std::vector<int>> demand(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int s = 0; s < n; ++s) {
    for (int r : g.receivers_of(s)) {
      demand[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] =
          static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(k) + 2));
    }
  }
  auto result = run_channel_pim(g, demand, k, 4, rng);
  std::vector<int> per_sender(static_cast<std::size_t>(n), 0);
  std::vector<int> per_receiver(static_cast<std::size_t>(n), 0);
  std::set<std::pair<int, int>> pairs;
  for (const auto& e : result.matches) {
    EXPECT_TRUE(pairs.insert({e.sender, e.receiver}).second)
        << "pair (" << e.sender << ", " << e.receiver << ") listed twice";
    per_sender[static_cast<std::size_t>(e.sender)] += e.channels;
    per_receiver[static_cast<std::size_t>(e.receiver)] += e.channels;
    EXPECT_TRUE(g.has_edge(e.sender, e.receiver));
    EXPECT_GE(e.channels, 1);
    EXPECT_LE(e.channels,
              demand[static_cast<std::size_t>(e.sender)]
                    [static_cast<std::size_t>(e.receiver)]);
  }
  for (int s = 0; s < n; ++s) {
    EXPECT_LE(result.sender_channels[static_cast<std::size_t>(s)], k);
    EXPECT_EQ(per_sender[static_cast<std::size_t>(s)],
              result.sender_channels[static_cast<std::size_t>(s)]);
  }
  for (int r = 0; r < n; ++r) {
    EXPECT_LE(result.receiver_channels[static_cast<std::size_t>(r)], k);
    EXPECT_EQ(per_receiver[static_cast<std::size_t>(r)],
              result.receiver_channels[static_cast<std::size_t>(r)]);
  }
  ASSERT_EQ(result.channels_after_round.size(), 4u);
  EXPECT_EQ(result.channels_after_round.back(), result.total_channels());
}

INSTANTIATE_TEST_SUITE_P(Ks, ChannelPimSweep, ::testing::Values(1, 2, 4, 8));

TEST(ChannelPimTest, MoreChannelsMatchMoreCapacity) {
  Rng rng(37);
  const int n = 64;
  auto g = BipartiteGraph::random(n, 6.0, rng);
  std::vector<std::vector<int>> demand(
      n, std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int s = 0; s < n; ++s) {
    for (int r : g.receivers_of(s)) {
      demand[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] = 8;
    }
  }
  const int total1 = run_channel_pim(g, demand, 1, 4, rng).total_channels();
  const int total4 = run_channel_pim(g, demand, 4, 4, rng).total_channels();
  EXPECT_GT(total4, total1);
}

TEST(ChannelPimTest, K1EquivalentToMatchingConstraints) {
  Rng rng(41);
  auto g = BipartiteGraph::random(48, 4.0, rng);
  std::vector<std::vector<int>> demand(
      48, std::vector<int>(48, 0));
  for (int s = 0; s < 48; ++s) {
    for (int r : g.receivers_of(s)) demand[s][r] = 1;
  }
  auto result = run_channel_pim(g, demand, 1, 8, rng);
  for (int v : result.sender_channels) EXPECT_LE(v, 1);
  for (int v : result.receiver_channels) EXPECT_LE(v, 1);
}

TEST(ChannelPimTest, DenseDemandFillsNearAllChannels) {
  Rng rng(43);
  const int n = 32, k = 4;
  auto g = BipartiteGraph::complete(n);
  std::vector<std::vector<int>> demand(n, std::vector<int>(n, k));
  auto result = run_channel_pim(g, demand, k, 6, rng);
  // With complete demand, nearly every channel should fill.
  EXPECT_GE(result.total_channels(), static_cast<int>(0.9 * n * k));
}

// ---- the shared grant/accept stage ------------------------------------------

std::vector<Offer> random_offers(Rng& rng, int count) {
  std::vector<Offer> offers;
  for (int i = 0; i < count; ++i) {
    offers.push_back(
        Offer{i, 1 + static_cast<int>(rng.uniform_int(4)),
              Bytes{static_cast<std::int64_t>(rng.uniform_int(100'000))}});
  }
  return offers;
}

TEST(TakeOffersTest, HandsOutAtMostSpareAndTakesEachOfferOnce) {
  Rng rng(47);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Offer> offers = random_offers(rng, 1 + trial % 12);
    const std::size_t count = offers.size();
    const int spare = 1 + trial % 9;
    const std::optional<Bytes> fct_cap =
        trial % 2 == 1 ? std::optional<Bytes>(Bytes{50'000}) : std::nullopt;
    std::set<int> taken;
    int handed = 0;
    take_offers(offers, spare, rng, fct_cap, [&](const Offer& o, int left) {
      EXPECT_EQ(left, spare - handed);
      EXPECT_TRUE(taken.insert(o.peer).second) << "offer taken twice";
      const int give = std::min(left, o.channels);
      handed += give;
      return give;
    });
    EXPECT_LE(handed, spare);
    // Offers not reached stay behind, and none was taken.
    EXPECT_EQ(taken.size() + offers.size(), count);
    for (const Offer& o : offers) EXPECT_EQ(taken.count(o.peer), 0u);
  }
}

TEST(TakeOffersTest, ATakeOfZeroDoesNotEndTheStage) {
  // send_accept takes nothing from a sender it has no demand left for; the
  // stage goes on to the next offer.
  for (const std::optional<Bytes> fct_cap :
       {std::optional<Bytes>{}, std::optional<Bytes>{Bytes{1000}}}) {
    Rng rng(53);
    std::vector<Offer> offers;
    for (int i = 0; i < 8; ++i) offers.push_back(Offer{i, 1});
    int handed = 0;
    take_offers(offers, 4, rng, fct_cap, [&](const Offer& o, int) {
      if (o.peer % 2 == 0) return 0;
      ++handed;
      return 1;
    });
    EXPECT_EQ(handed, 4);  // every odd peer, past the evens that took none

    std::vector<Offer> refused = random_offers(rng, 6);
    int calls = 0;
    take_offers(refused, 3, rng, fct_cap, [&](const Offer&, int) {
      ++calls;
      return 0;
    });
    EXPECT_EQ(calls, 6);
    EXPECT_TRUE(refused.empty());
  }
}

TEST(TakeOffersTest, NoSpareOrNoOffersDrawsNothing) {
  for (const std::optional<Bytes> fct_cap :
       {std::optional<Bytes>{}, std::optional<Bytes>{Bytes{1000}}}) {
    Rng rng(59);
    Rng untouched = rng;
    bool called = false;
    const auto take = [&](const Offer&, int) {
      called = true;
      return 1;
    };
    std::vector<Offer> offers = {Offer{1, 2, Bytes{10}}, Offer{2, 1, Bytes{5}}};
    take_offers(offers, 0, rng, fct_cap, take);
    take_offers(offers, -1, rng, fct_cap, take);
    std::vector<Offer> none;
    take_offers(none, 4, rng, fct_cap, take);
    EXPECT_FALSE(called);
    EXPECT_EQ(offers.size(), 2u);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rng.next(), untouched.next());
  }
}

TEST(TakeOffersTest, FctOrderTakesTheSmallestClampedKeyFirst) {
  Rng rng(61);
  const Bytes cap{40'000};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Offer> offers = random_offers(rng, 2 + trial % 10);
    Bytes smallest = cap;
    for (const Offer& o : offers) {
      smallest = std::min(smallest, std::min(o.min_remaining, cap));
    }
    std::vector<Bytes> picks;
    take_offers(offers, 1, rng, cap, [&](const Offer& o, int) {
      picks.push_back(std::min(o.min_remaining, cap));
      return 1;
    });
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks.front().raw(), smallest.raw());
  }
}

}  // namespace
}  // namespace dcpim::matching
