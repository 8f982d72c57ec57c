// Integration tests for the experiment harness: every protocol x pattern
// builds, runs, and produces sane metrics at small scale.
#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace dcpim::harness {
namespace {

ExperimentConfig small(Protocol p) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "imc10";
  cfg.load = 0.5;
  cfg.gen_stop = TimePoint(us(200));
  cfg.measure_start = TimePoint(us(20));
  cfg.measure_end = TimePoint(us(200));
  cfg.horizon = TimePoint(ms(5));
  return cfg;
}

class AllProtocolsTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(AllProtocolsTest, AllToAllRunsAndDeliversEverything) {
  ExperimentConfig cfg = small(GetParam());
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_GT(res.flows_total, 5u);
  // With a generous drain horizon every protocol must finish its flows.
  EXPECT_EQ(res.flows_done, res.flows_total);
  EXPECT_GT(res.overall.count, 0u);
  EXPECT_GE(res.overall.mean, 1.0);
  EXPECT_GT(res.bdp, Bytes{});
  // At this tiny scale a single 10MB tail flow dwarfs what a 200us window
  // can physically deliver, so only sanity-check the ratio.
  EXPECT_GT(res.goodput_ratio, 0.0);
  EXPECT_LE(res.goodput_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocolsTest,
                         ::testing::Values(Protocol::Dcpim, Protocol::Phost,
                                           Protocol::Homa,
                                           Protocol::HomaAeolus, Protocol::Ndp,
                                           Protocol::Hpcc, Protocol::Dctcp,
                                           Protocol::Tcp));

TEST(HarnessTest, BucketsCoverAllRecordedFlows) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  const ExperimentResult res = run_experiment(cfg);
  std::size_t bucket_total = 0;
  for (const auto& b : res.buckets) bucket_total += b.slowdown.count;
  EXPECT_EQ(bucket_total, res.overall.count);
}

TEST(HarnessTest, DeterministicForSameSeed) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.flows_total, b.flows_total);
  EXPECT_DOUBLE_EQ(a.overall.mean, b.overall.mean);
  EXPECT_DOUBLE_EQ(a.goodput_ratio, b.goodput_ratio);
}

TEST(HarnessTest, DifferentSeedsDiffer) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  const ExperimentResult a = run_experiment(cfg);
  cfg.seed = 99;
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_NE(a.flows_total, b.flows_total);
}

TEST(HarnessTest, TestbedTopologyIsSlower) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  cfg.topo = TopoKind::Testbed;
  cfg.racks = 2;
  cfg.hosts_per_rack = 16;
  cfg.horizon = TimePoint(ms(40));  // 10G links: the IMC10 tail needs ~8ms alone
  const ExperimentResult res = run_experiment(cfg);
  // 10G links: RTT around the paper's ~8us testbed.
  EXPECT_GT(res.data_rtt, us(5));
  EXPECT_LT(res.data_rtt, us(15));
  EXPECT_EQ(res.flows_done, res.flows_total);
}

TEST(HarnessTest, BurstyPatternProducesIncastFlows) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  cfg.pattern = Pattern::Bursty;
  cfg.racks = 6;
  cfg.hosts_per_rack = 8;
  cfg.incast_fanin = 20;
  cfg.incast_bursts = 2;
  cfg.incast_interval = us(100);
  cfg.gen_stop = TimePoint(us(300));
  cfg.horizon = TimePoint(ms(6));
  const ExperimentResult res = run_experiment(cfg);
  // 2 bursts x 20 senders on top of the shuffle traffic.
  EXPECT_GE(res.flows_total, 40u);
  EXPECT_EQ(res.flows_done, res.flows_total);
}

TEST(HarnessTest, DenseTmCreatesAllPairs) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  cfg.pattern = Pattern::DenseTM;
  cfg.dense_flow_size = kKB * 100;
  cfg.horizon = TimePoint(ms(10));
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_EQ(res.flows_total, 8u * 7u);
  EXPECT_EQ(res.flows_done, res.flows_total);
}

TEST(HarnessTest, WorstCaseFixedSizeUsesBdpPlusOne) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  cfg.fixed_size = Bytes{-1};  // BDP+1 sentinel (Fig 4b)
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_EQ(res.flows_done, res.flows_total);
  EXPECT_GT(res.overall.count, 0u);
}

TEST(HarnessTest, LossInjectionStillDrains) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  cfg.loss_rate = 0.01;
  cfg.horizon = TimePoint(ms(40));
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_EQ(res.flows_done, res.flows_total);
}

TEST(HarnessTest, UtilSeriesTracksDelivery) {
  ExperimentConfig cfg = small(Protocol::Dcpim);
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_GT(res.util_series.size(), 0u);
  double peak = 0;
  for (double u : res.util_series) peak = std::max(peak, u);
  EXPECT_GT(peak, 0.05);
  EXPECT_LT(peak, 1.2);
}

TEST(HarnessTest, ProtocolNames) {
  EXPECT_STREQ(to_string(Protocol::Dcpim), "dcPIM");
  EXPECT_STREQ(to_string(Protocol::HomaAeolus), "HomaAeolus");
  EXPECT_STREQ(to_string(Protocol::Hpcc), "HPCC");
}

}  // namespace
}  // namespace dcpim::harness
