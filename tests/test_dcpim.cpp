// Protocol tests for dcPIM: short-flow bypass, matching-phase behaviour,
// channels, token clocking, loss recovery, asynchronous clocks, and the
// pipelining ablation.
#include <gtest/gtest.h>

#include <memory>

#include "core/dcpim_host.h"
#include "net/topology.h"
#include "stats/metrics.h"
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

  DcpimHost* host(int i) {
    return static_cast<DcpimHost*>(net->host(i));
  }

  DcpimConfig cfg;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
};

TEST(DcpimTest, ShortFlowBypassesMatchingAtNearOracleLatency) {
  Fixture f;
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{20'000}, TimePoint(us(1)));  // << 1 BDP
  f.net->sim().run(TimePoint(ms(1)));
  ASSERT_TRUE(flow->finished());
  const Time oracle = f.topo->oracle_fct(0, 7, Bytes{20'000});
  EXPECT_LT(fratio(flow->fct(), oracle), 1.1);
  // Sent unscheduled: no tokens involved.
  EXPECT_GT(f.host(0)->counters().short_data_sent, 0u);
  EXPECT_EQ(f.host(7)->counters().tokens_sent, 0u);
}

TEST(DcpimTest, LongFlowIsAdmittedThroughMatchingAndTokens) {
  Fixture f;
  const Bytes size = f.net->bdp() * 5;
  net::Flow* flow = f.net->create_flow(0, 7, size, TimePoint(us(1)));
  f.net->sim().run(TimePoint(ms(3)));
  ASSERT_TRUE(flow->finished());
  const auto& rx = f.host(7)->counters();
  const auto& tx = f.host(0)->counters();
  const std::uint64_t packets = flow->seq_count();
  EXPECT_GE(rx.tokens_sent, packets);  // every data packet was admitted
  EXPECT_GE(rx.requests_sent, 1u);
  EXPECT_GE(tx.grants_sent, 1u);
  EXPECT_GE(rx.accepts_sent, 1u);
  EXPECT_GE(tx.data_sent, packets);  // every admitted packet was sent
}

TEST(DcpimTest, FactoryOwnsACopyOfItsConfig) {
  // The factory and every host it builds keep their own copy of the config,
  // so a temporary config leaves nothing dangling.
  const net::Topology::HostFactory factory = dcpim_host_factory(DcpimConfig{});
  net::Network net{net::NetConfig{}};
  const net::Topology topo =
      net::Topology::leaf_spine(net, Fixture::small_topo(), factory);
  net::Flow* flow = net.create_flow(0, 7, Bytes{200'000}, TimePoint{});
  net.sim().run(TimePoint(ms(3)));
  EXPECT_TRUE(flow->finished());
}

TEST(DcpimDeathTest, InvalidConfigIsRejectedAtConstruction) {
  DcpimConfig cfg;
  cfg.rounds = 0;
  net::Network net{net::NetConfig{}};
  EXPECT_DEATH((void)net::Topology::leaf_spine(net, Fixture::small_topo(),
                                               dcpim_host_factory(cfg)),
               "at least one matching round");
}

TEST(DcpimTest, LongFlowWaitsForMatchingPhase) {
  Fixture f;
  const Bytes size = f.net->bdp() * 5;
  net::Flow* flow = f.net->create_flow(0, 7, size, TimePoint(us(1)));
  f.net->sim().run(TimePoint(ms(3)));
  ASSERT_TRUE(flow->finished());
  // A matched flow cannot beat one epoch of matching delay.
  EXPECT_GT(flow->fct(), f.cfg.epoch_length(f.net->max_control_rtt()));
}

TEST(DcpimTest, NotificationPerFlowAndFinishHandshake) {
  Fixture f;
  f.net->create_flow(0, 7, Bytes{10'000}, TimePoint(us(1)));
  f.net->create_flow(1, 6, Bytes{300'000}, TimePoint(us(1)));
  f.net->sim().run(TimePoint(ms(3)));
  EXPECT_EQ(f.net->completed_flows, 2u);
  EXPECT_GE(f.host(0)->counters().notifications_sent, 1u);
  EXPECT_GE(f.host(1)->counters().notifications_sent, 1u);
}

TEST(DcpimTest, MatchedChannelsNeverExceedK) {
  Fixture f;
  // Four senders each push a long flow to receiver 7.
  for (int s = 0; s < 4; ++s) {
    f.net->create_flow(s, 7, f.net->bdp() * 10, TimePoint{});
  }
  const Time period = f.cfg.epoch_length(f.net->max_control_rtt());
  for (int epoch = 0; epoch < 20; ++epoch) {
    f.net->sim().run(TimePoint(period * (epoch + 1)));
    EXPECT_LE(f.host(7)->receiver_matched_channels(
                  static_cast<std::uint64_t>(epoch)),
              f.cfg.channels);
  }
}

TEST(DcpimTest, MultipleSendersShareReceiverViaChannels) {
  Fixture f;
  // Each flow needs ~2 of the k=4 channels (2 BDP over a ~31us phase), so
  // the receiver can and should admit several senders in the same phase.
  std::vector<net::Flow*> flows;
  for (int s = 0; s < 4; ++s) {
    flows.push_back(f.net->create_flow(s, 7, f.net->bdp() * 2, TimePoint{}));
  }
  const Time period = f.cfg.epoch_length(f.net->max_control_rtt());
  bool multi = false;
  for (int epoch = 0; epoch < 40 && !multi; ++epoch) {
    f.net->sim().run(TimePoint(period * (epoch + 1)));
    multi = f.host(7)->receiver_matched_peers(
                static_cast<std::uint64_t>(epoch)) > 1;
  }
  EXPECT_TRUE(multi);
  f.net->sim().run(TimePoint(ms(10)));
  EXPECT_EQ(f.net->completed_flows, 4u);
}

TEST(DcpimTest, TokenWindowBoundsOutstandingAdmissions) {
  DcpimConfig base;
  base.channels = 1;
  base.rounds = 1;
  Fixture f(Fixture::small_topo(), base);
  const Bytes size = f.net->bdp() * 20;
  net::Flow* flow = f.net->create_flow(0, 7, size, TimePoint{});
  f.net->sim().run(TimePoint(ms(10)));
  ASSERT_TRUE(flow->finished());
  // Tokens per data packet: no runaway admission despite the long flow.
  const std::uint64_t packets = flow->seq_count();
  EXPECT_LE(f.host(7)->counters().tokens_sent, packets + 50);
}

TEST(DcpimTest, AllToAllTrafficCompletesWithLowShortFlowSlowdown) {
  Fixture f;
  stats::FlowStats stats(*f.net, *f.topo);
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::imc10();
  pc.load = 0.6;
  pc.stop = TimePoint(us(300));
  workload::PoissonGenerator gen(*f.net, f.topo->host_rate(), pc);
  gen.start();
  f.net->sim().run(TimePoint(ms(5)));
  ASSERT_GT(f.net->num_flows(), 20u);
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
  const auto sf = stats.short_flows(f.net->bdp());
  EXPECT_LT(sf.mean, 1.3);
  EXPECT_LT(sf.p99, 2.0);
}

TEST(DcpimTest, RecoversFromRandomPacketLoss) {
  net::LeafSpineParams p = Fixture::small_topo();
  p.port_customize = [](net::PortConfig& pc) { pc.loss_rate = 0.02; };
  Fixture f(p);
  for (int i = 0; i < 8; ++i) {
    f.net->create_flow(i % 4, 4 + (i % 4), f.net->bdp() * 3, TimePoint(us(i)));
  }
  f.net->create_flow(0, 5, Bytes{10'000}, TimePoint(us(3)));  // short flow under loss
  f.net->sim().run(TimePoint(ms(40)));
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

TEST(DcpimTest, ShortFlowRescueAfterHeavyIncastLoss) {
  // 30:1 incast of short flows: unscheduled bursts overflow the receiver
  // downlink; dcPIM must rescue the losers through the matching phase.
  net::LeafSpineParams p;
  p.racks = 4;
  p.hosts_per_rack = 8;
  p.spines = 2;
  p.buffer_bytes = 100 * kKB;  // small buffer to force drops
  Fixture f(p);
  workload::schedule_incast(*f.net, 0, [] {
    std::vector<int> s;
    for (int i = 1; i <= 30; ++i) s.push_back(i);
    return s;
  }(), Bytes{60'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(30)));
  EXPECT_EQ(f.net->completed_flows, 30u);
  EXPECT_GT(f.net->total_drops(), 0u);  // the incast really did overflow
}

TEST(DcpimTest, AsynchronousClocksStillComplete) {
  DcpimConfig base;
  Fixture probe;  // to learn stage length for jitter sizing
  base.clock_jitter = probe.cfg.stage_length(probe.net->max_control_rtt()) / 2;
  Fixture f(Fixture::small_topo(), base);
  for (int i = 0; i < 6; ++i) {
    f.net->create_flow(i % 4, 4 + ((i + 1) % 4), f.net->bdp() * 4, TimePoint(us(i)));
  }
  f.net->sim().run(TimePoint(ms(20)));
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

TEST(DcpimTest, PipeliningBeatsSequentialUtilization) {
  auto run_mode = [](bool pipelined) {
    DcpimConfig base;
    base.pipeline_phases = pipelined;
    Fixture f(Fixture::small_topo(), base);
    workload::PoissonPatternConfig pc;
    pc.cdf = &workload::web_search();
    pc.load = 0.6;
    pc.stop = TimePoint(us(400));
    workload::PoissonGenerator gen(*f.net, f.topo->host_rate(), pc);
    gen.start();
    f.net->sim().run(TimePoint(us(400)));
    return f.net->total_payload_delivered();
  };
  const Bytes pipelined = run_mode(true);
  const Bytes sequential = run_mode(false);
  EXPECT_GT(fratio(pipelined, sequential), 1.2);
}

TEST(DcpimTest, FctOptimizingRoundFavoursSmallerFlow) {
  // Two long flows contend for receiver 7 with k=1 (one match per phase):
  // the FCT-optimizing round must let the smaller one finish first.
  DcpimConfig base;
  base.channels = 1;
  Fixture f(Fixture::small_topo(), base);
  net::Flow* big = f.net->create_flow(0, 7, f.net->bdp() * 40, TimePoint{});
  net::Flow* small = f.net->create_flow(1, 7, f.net->bdp() * 3, TimePoint(us(1)));
  f.net->sim().run(TimePoint(ms(40)));
  ASSERT_TRUE(big->finished());
  ASSERT_TRUE(small->finished());
  EXPECT_LT(small->finish_time, big->finish_time);
}

TEST(DcpimTest, StaleTokensAreDiscarded) {
  // With sequential phases and an artificial pause, tokens from an expired
  // phase must not trigger data. Hard to force directly; instead verify the
  // counter stays plausible under load (no negative/unbounded behaviour).
  Fixture f;
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::web_search();
  pc.load = 0.7;
  pc.stop = TimePoint(us(300));
  workload::PoissonGenerator gen(*f.net, f.topo->host_rate(), pc);
  gen.start();
  f.net->sim().run(TimePoint(ms(4)));
  std::uint64_t sent = 0, expired = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    sent += f.host(h)->counters().tokens_sent;
    expired += f.host(h)->counters().tokens_expired;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_LT(expired, sent / 2);  // expiry is the exception, not the rule
}

TEST(DcpimTest, EpochLengthMatchesFormula) {
  DcpimConfig cfg;
  cfg.rounds = 4;
  cfg.beta = 1.3;
  // (2r+1) * beta * cRTT/2 = 9 * 1.3 * 2.6us = 30.42us (paper §3.4).
  EXPECT_NEAR(to_us(cfg.epoch_length(us(5.2))), 30.42, 0.1);
  EXPECT_NEAR(to_us(cfg.stage_length(us(5.2))), 3.38, 0.05);
}

TEST(DcpimTest, ConfigDefaultsFollowPaper) {
  DcpimConfig cfg;
  EXPECT_EQ(cfg.rounds, 4);
  EXPECT_EQ(cfg.channels, 4);
  EXPECT_NEAR(cfg.beta, 1.3, 1e-9);
  EXPECT_TRUE(cfg.fct_optimizing_first_round);
  EXPECT_TRUE(cfg.pipeline_phases);
}

}  // namespace
}  // namespace dcpim::core
