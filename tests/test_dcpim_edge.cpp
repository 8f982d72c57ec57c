// dcPIM edge cases and parameterized protocol sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/spec.h"
#include "core/dcpim_host.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "net/topology.h"
#include "workload/generator.h"

namespace dcpim::core {
namespace {

struct Fixture {
  explicit Fixture(net::LeafSpineParams params = small_topo(),
                   DcpimConfig base = DcpimConfig{},
                   net::NetConfig ncfg = net::NetConfig{})
      : cfg(base), net(std::make_unique<net::Network>(ncfg)) {
    topo = std::make_unique<net::Topology>(
        net::Topology::leaf_spine(*net, params, dcpim_host_factory(cfg)));
  }
  static net::LeafSpineParams small_topo() {
    net::LeafSpineParams p;
    p.racks = 2;
    p.hosts_per_rack = 4;
    p.spines = 2;
    return p;
  }
  DcpimHost* host(int i) { return static_cast<DcpimHost*>(net->host(i)); }

  DcpimConfig cfg;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
};

TEST(DcpimEdgeTest, OneByteFlow) {
  Fixture f;
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{1}, TimePoint{});
  f.net->sim().run(TimePoint(ms(1)));
  EXPECT_TRUE(flow->finished());
}

TEST(DcpimEdgeTest, FlowExactlyAtShortThreshold) {
  Fixture f;
  // size == threshold is still "short" (<=, §3.5).
  net::Flow* flow = f.net->create_flow(0, 7, f.net->bdp(), TimePoint{});
  f.net->sim().run(TimePoint(ms(2)));
  ASSERT_TRUE(flow->finished());
  EXPECT_GT(f.host(0)->counters().short_data_sent, 0u);
  EXPECT_EQ(f.host(7)->counters().tokens_sent, 0u);
}

TEST(DcpimEdgeTest, FlowOneByteOverThresholdIsMatched) {
  Fixture f;
  net::Flow* flow =
      f.net->create_flow(0, 7, f.net->bdp() + Bytes{1},
                         TimePoint{});
  f.net->sim().run(TimePoint(ms(3)));
  ASSERT_TRUE(flow->finished());
  EXPECT_EQ(f.host(0)->counters().short_data_sent, 0u);
  EXPECT_GT(f.host(7)->counters().tokens_sent, 0u);
}

TEST(DcpimEdgeTest, IntraRackFlowCompletes) {
  Fixture f;
  net::Flow* flow = f.net->create_flow(0, 1, Bytes{500'000}, TimePoint{});  // same leaf
  f.net->sim().run(TimePoint(ms(3)));
  EXPECT_TRUE(flow->finished());
}

TEST(DcpimEdgeTest, ManyConcurrentFlowsBetweenSamePair) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.net->create_flow(0, 7, Bytes{200'000}, TimePoint(us(i)));
  }
  f.net->sim().run(TimePoint(ms(10)));
  EXPECT_EQ(f.net->completed_flows, 10u);
}

TEST(DcpimEdgeTest, BidirectionalTraffic) {
  Fixture f;
  f.net->create_flow(0, 7, Bytes{400'000}, TimePoint{});
  f.net->create_flow(7, 0, Bytes{400'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(5)));
  EXPECT_EQ(f.net->completed_flows, 2u);
}

TEST(DcpimEdgeTest, MultiMegabyteFlowSustainsHighRate) {
  Fixture f;
  const Bytes size = kMB * 5;
  net::Flow* flow = f.net->create_flow(0, 7, size, TimePoint{});
  f.net->sim().run(TimePoint(ms(20)));
  ASSERT_TRUE(flow->finished());
  // Alone in the network a bulk flow must get close to line rate: the k=4
  // channels go entirely to it.
  const Time oracle = f.topo->oracle_fct(0, 7, size);
  EXPECT_LT(fratio(flow->fct(), oracle), 1.35);
}

TEST(DcpimEdgeTest, LongFlowPriorityLevelsSpreadByRemaining) {
  DcpimConfig base;
  base.long_flow_priorities = 4;
  Fixture f(Fixture::small_topo(), base);
  f.net->create_flow(0, 7, kMB * 2, TimePoint{});
  f.net->create_flow(1, 7, Bytes{200'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(10)));
  EXPECT_EQ(f.net->completed_flows, 2u);
}

TEST(DcpimEdgeTest, ZeroLoadIdleNetworkStaysQuiet) {
  Fixture f;
  f.net->sim().run(TimePoint(ms(1)));
  // Matching machinery runs but produces no control traffic without demand.
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    EXPECT_EQ(f.host(h)->counters().requests_sent, 0u);
    EXPECT_EQ(f.host(h)->counters().grants_sent, 0u);
  }
}

TEST(DcpimEdgeTest, HeavyControlLossStillCompletes) {
  net::LeafSpineParams p = Fixture::small_topo();
  p.port_customize = [](net::PortConfig& pc) { pc.loss_rate = 0.05; };
  Fixture f(p);
  f.net->create_flow(0, 7, f.net->bdp() * 3, TimePoint{});
  f.net->create_flow(1, 6, Bytes{8'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(80)));
  EXPECT_EQ(f.net->completed_flows, 2u);
  // Retransmission machinery must actually have fired somewhere.
  std::uint64_t retx = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    retx += f.host(h)->counters().notify_retx +
            f.host(h)->counters().finish_retx +
            f.host(h)->counters().readmitted_seqs +
            f.host(h)->counters().short_flows_rescued;
  }
  EXPECT_GT(retx, 0u);
}

TEST(DcpimEdgeTest, SevereLossTokenAccountingStaysBounded) {
  // 30% loss everywhere: accepts get lost (over-commitment, §3.5), tokens
  // get lost, data gets lost. The flow must still complete, and any stale
  // tokens discarded by the sender pacer must stay a small fraction of the
  // tokens issued (no hoarding, no runaway).
  net::LeafSpineParams p = Fixture::small_topo();
  p.port_customize = [](net::PortConfig& pc) { pc.loss_rate = 0.3; };
  Fixture f(p);
  net::Flow* flow = f.net->create_flow(0, 7, f.net->bdp() * 5, TimePoint{});
  f.net->sim().run(TimePoint(ms(200)));
  EXPECT_TRUE(flow->finished());
  std::uint64_t expired = 0, tokens = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    expired += f.host(h)->counters().tokens_expired;
    tokens += f.host(h)->counters().tokens_sent;
  }
  EXPECT_GT(tokens, 0u);
  EXPECT_LT(expired, tokens);
}

TEST(DcpimEdgeTest, CountersAreConsistent) {
  Fixture f;
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::imc10();
  pc.load = 0.5;
  pc.stop = TimePoint(us(300));
  workload::PoissonGenerator gen(*f.net, f.topo->host_rate(), pc);
  gen.start();
  f.net->sim().run(TimePoint(ms(5)));
  std::uint64_t tokens = 0, data = 0, short_data = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    tokens += f.host(h)->counters().tokens_sent;
    data += f.host(h)->counters().data_sent;
    short_data += f.host(h)->counters().short_data_sent;
  }
  // Every matched data packet was admitted by a token; short-flow packets
  // were not. (A few tokens may expire unused.)
  EXPECT_LE(data - short_data, tokens);
  EXPECT_GE(data, short_data);
}

// ---- parameter grid: every (r, k) combination must deliver ---------------

class DcpimParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(DcpimParamTest, MixedTrafficCompletes) {
  const auto [rounds, channels, pipelined] = GetParam();
  DcpimConfig base;
  base.rounds = rounds;
  base.channels = channels;
  base.pipeline_phases = pipelined;
  Fixture f(Fixture::small_topo(), base);
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::web_search();
  pc.load = 0.4;
  pc.stop = TimePoint(us(200));
  workload::PoissonGenerator gen(*f.net, f.topo->host_rate(), pc);
  gen.start();
  f.net->sim().run(TimePoint(ms(20)));
  EXPECT_GT(f.net->num_flows(), 0u);
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

INSTANTIATE_TEST_SUITE_P(Grid, DcpimParamTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 6),
                                            ::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

// ---- beta sweep: any slack >= 1 must work --------------------------------

class DcpimBetaTest : public ::testing::TestWithParam<double> {};

TEST_P(DcpimBetaTest, LongFlowCompletes) {
  DcpimConfig base;
  base.beta = GetParam();
  Fixture f(Fixture::small_topo(), base);
  net::Flow* flow = f.net->create_flow(0, 7, f.net->bdp() * 4, TimePoint{});
  f.net->sim().run(TimePoint(ms(10)));
  EXPECT_TRUE(flow->finished());
}

INSTANTIATE_TEST_SUITE_P(Slack, DcpimBetaTest,
                         ::testing::Values(1.0, 1.1, 1.3, 2.0, 3.0));

// ---- the receiver's token ledger ----------------------------------------------

std::vector<std::uint32_t> ledger_seqs(const TokenLedger& ledger) {
  std::vector<std::uint32_t> seqs;
  for (const auto& [seq, issued] : ledger.entries()) seqs.push_back(seq);
  return seqs;
}

TEST(TokenLedgerTest, ReadmittedSeqBelowTheTailGoesInInOrder) {
  TokenLedger ledger;
  for (std::uint32_t seq = 10; seq < 14; ++seq) {
    EXPECT_TRUE(ledger.add(seq, TimePoint(ns(seq))));
  }
  // Seq 11's data arrives; then a timed-out seq 3 and seq 11 come back.
  EXPECT_EQ(ledger.take(11), TimePoint(ns(11)));
  EXPECT_TRUE(ledger.add(3, TimePoint(us(1))));
  EXPECT_TRUE(ledger.add(11, TimePoint(us(2))));
  EXPECT_EQ(ledger_seqs(ledger),
            (std::vector<std::uint32_t>{3, 10, 11, 12, 13}));
  EXPECT_EQ(ledger.take(11), TimePoint(us(2)));
  EXPECT_EQ(ledger.take(11), kTimeUnset) << "a seq is answered once";
  EXPECT_EQ(ledger.take(99), kTimeUnset);
}

TEST(TokenLedgerTest, DuplicateSeqIsNotCountedTwice) {
  // DcpimHost counts outstanding_total_ by add()'s result, so a seq issued
  // while still outstanding must neither add an entry nor report one.
  TokenLedger ledger;
  std::size_t total = 0;
  for (const std::uint32_t seq : {5u, 6u, 7u, 6u, 5u, 7u}) {
    if (ledger.add(seq, TimePoint(us(seq)))) ++total;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(ledger.size(), total);
  // The first issue instant stands, as with std::map::emplace.
  EXPECT_EQ(ledger.entries().front().second, TimePoint(us(5)));
}

TEST(TokenLedgerTest, RemoveIfVisitsInSeqOrder) {
  TokenLedger ledger;
  for (const std::uint32_t seq : {4u, 8u, 2u, 6u}) {
    ledger.add(seq, TimePoint(us(seq)));
  }
  std::vector<std::uint32_t> removed;
  ledger.remove_if([&removed](const TokenLedger::Entry& e) {
    if (e.first % 4 != 0) return false;
    removed.push_back(e.first);
    return true;
  });
  EXPECT_EQ(removed, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(ledger_seqs(ledger), (std::vector<std::uint32_t>{2, 6}));
}

/// Lossy dcPIM golden: random loss on every port plus a token-kill window,
/// with the auditor on. Receivers time out hundreds of tokens here
/// (readmitted_seqs is ~900 summed over the hosts) and re-admit them in
/// seq order, so the pinned digest moves if the token ledger changes that
/// order or its accounting. A change that only speeds up the token path
/// must leave it as it is.
TEST(DcpimGoldenTest, LossyCellWithReadmissionsIsPinned) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::Dcpim;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "imc10";
  cfg.load = 0.6;
  cfg.gen_stop = TimePoint(us(200));
  cfg.measure_start = TimePoint(us(20));
  cfg.measure_end = TimePoint(us(200));
  cfg.horizon = TimePoint(ms(5));
  cfg.audit = true;
  cfg.loss_rate = 0.01;
  cfg.faults = "drop:token:0.2@30us:60us";
  const harness::ExperimentResult res = harness::run_experiment(cfg);
  EXPECT_TRUE(res.audit.clean()) << harness::format_audit_summary(res.audit);
  EXPECT_EQ(res.flows_done, res.flows_total);
  EXPECT_GT(res.recovery.recovery_actions, 0u);
  EXPECT_EQ(campaign::fnv1a(harness::result_fingerprint(res)),
            0x805bca64feb78062ull);
}

}  // namespace
}  // namespace dcpim::core
