// Property-style tests (parameterized sweeps) on cross-cutting invariants:
// determinism, reassembly under arbitrary orderings, matching monotonicity,
// and conservation laws of the metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "harness/experiment.h"
#include "matching/pim.h"
#include "net/flow.h"
#include "stats/metrics.h"
#include "util/rng.h"

namespace dcpim {
namespace {

// ---- FlowRxState: any delivery order, with duplicates, completes once ----

class RxStateOrderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RxStateOrderTest, PermutedDeliveryWithDuplicates) {
  Rng rng(GetParam());
  net::Flow flow;
  flow.id = 1;
  flow.size = Bytes{1460 * 37 + 123};  // 38 packets, short tail
  net::FlowRxState st(&flow);
  std::vector<std::uint32_t> seqs(st.total_packets());
  std::iota(seqs.begin(), seqs.end(), 0);
  // Shuffle and inject ~30% duplicates.
  for (std::size_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[rng.uniform_int(i)]);
  }
  Bytes total{};
  int completions = 0;
  for (std::uint32_t seq : seqs) {
    const bool was_complete = st.complete();
    total += st.on_data(seq);
    if (!was_complete && st.complete()) ++completions;
    if (rng.bernoulli(0.3)) total += st.on_data(seq);  // duplicate
  }
  EXPECT_EQ(total, flow.size);
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(st.complete());
  EXPECT_EQ(st.first_missing(), st.total_packets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RxStateOrderTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---- PIM determinism & monotonicity ---------------------------------------

TEST(PimPropertyTest, SameSeedSameMatching) {
  for (std::uint64_t seed : {3ull, 17ull, 251ull}) {
    Rng r1(seed), r2(seed);
    auto g1 = matching::BipartiteGraph::random(96, 4.0, r1);
    auto g2 = matching::BipartiteGraph::random(96, 4.0, r2);
    auto m1 = matching::run_pim(g1, 6, r1);
    auto m2 = matching::run_pim(g2, 6, r2);
    EXPECT_EQ(m1.match_of_sender, m2.match_of_sender);
  }
}

TEST(PimPropertyTest, MoreRoundsNeverHurt) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = matching::BipartiteGraph::random(64, 5.0, rng);
    // Use identical RNG streams for both runs so the prefix matches.
    Rng a(trial), b(trial);
    const int m2 = matching::run_pim(g, 2, a).size();
    const int m6 = matching::run_pim(g, 6, b).size();
    EXPECT_GE(m6, m2);
  }
}

TEST(PimPropertyTest, BoundDecreasesWithDegreeIncreasesWithRounds) {
  const double m_star = 100.0;
  double prev = -1;
  for (int r = 1; r <= 6; ++r) {
    const double bound = matching::theorem1_bound(128, 4.0, m_star, r);
    EXPECT_GE(bound, prev);
    prev = bound;
  }
  EXPECT_GE(matching::theorem1_bound(128, 2.0, m_star, 3),
            matching::theorem1_bound(128, 8.0, m_star, 3));
}

// ---- percentile properties ---------------------------------------------------

TEST(PercentileProperty, BoundedAndMonotone) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.uniform() * 100);
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  double prev = lo;
  for (double p = 0; p <= 100; p += 5) {
    const double v = stats::percentile(values, p);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    EXPECT_GE(v, prev - 1e-9);
    prev = v;
  }
}

// ---- end-to-end conservation: delivered == sum of completed sizes ---------

TEST(ConservationTest, DeliveredBytesMatchCompletedFlows) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::Dcpim;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "imc10";
  cfg.load = 0.5;
  cfg.gen_stop = TimePoint(us(200));
  cfg.horizon = TimePoint(ms(5));
  const auto res = harness::run_experiment(cfg);
  EXPECT_EQ(res.flows_done, res.flows_total);
  // All flows completed => total delivered payload spread over the series
  // equals total offered bytes.
  double delivered_frac_sum = 0;
  for (double u : res.util_series) delivered_frac_sum += u;
  EXPECT_GT(delivered_frac_sum, 0);
}

// ---- protocol-independent: slowdown >= 1 for every record ------------------

class SlowdownFloorTest
    : public ::testing::TestWithParam<harness::Protocol> {};

TEST_P(SlowdownFloorTest, NoFlowBeatsTheOracle) {
  harness::ExperimentConfig cfg;
  cfg.protocol = GetParam();
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "websearch";
  cfg.load = 0.4;
  cfg.gen_stop = TimePoint(us(150));
  cfg.horizon = TimePoint(ms(5));
  const auto res = harness::run_experiment(cfg);
  ASSERT_GT(res.overall.count, 0u);
  // The oracle is a physical lower bound; mean >= 1 and p50 >= 1 must hold
  // (tiny numerical tolerance).
  EXPECT_GE(res.overall.p50, 0.999);
  EXPECT_GE(res.overall.mean, 0.999);
}

INSTANTIATE_TEST_SUITE_P(Protocols, SlowdownFloorTest,
                         ::testing::Values(harness::Protocol::Dcpim,
                                           harness::Protocol::Homa,
                                           harness::Protocol::Ndp,
                                           harness::Protocol::Hpcc,
                                           harness::Protocol::Tcp));

}  // namespace
}  // namespace dcpim
