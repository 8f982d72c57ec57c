// Protocol tests for the pHost baseline and the size-unaware dcPIM mode.
#include <gtest/gtest.h>

#include <memory>

#include "core/dcpim_host.h"
#include "net/topology.h"
#include "proto/phost.h"
#include "workload/generator.h"

namespace dcpim {
namespace {

net::LeafSpineParams small_topo() {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  return p;
}

struct PhostFixture {
  explicit PhostFixture(net::LeafSpineParams p = small_topo())
      : net(std::make_unique<net::Network>(net::NetConfig{})) {
    topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
        *net, p, proto::phost_host_factory()));
  }
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
  proto::PhostHost* host(int i) {
    return static_cast<proto::PhostHost*>(net->host(i));
  }
};

TEST(PhostTest, ShortFlowRidesFreeTokens) {
  PhostFixture f;
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{20'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(1)));
  ASSERT_TRUE(flow->finished());
  EXPECT_GT(f.host(0)->counters().free_tokens_spent, 0u);
  EXPECT_EQ(f.host(7)->counters().tokens_sent, 0u);  // no grants needed
  const Time oracle = f.topo->oracle_fct(0, 7, Bytes{20'000});
  EXPECT_LT(fratio(flow->fct(), oracle), 1.1);
}

TEST(PhostTest, LongFlowNeedsReceiverTokens) {
  PhostFixture f;
  const Bytes size = f.net->bdp() * 5;
  net::Flow* flow = f.net->create_flow(0, 7, size, TimePoint{});
  f.net->sim().run(TimePoint(ms(5)));
  ASSERT_TRUE(flow->finished());
  EXPECT_GT(f.host(7)->counters().tokens_sent, 0u);
}

TEST(PhostTest, SrptPrefersSmallerFlow) {
  PhostFixture f;
  net::Flow* big = f.net->create_flow(0, 7, f.net->bdp() * 30, TimePoint{});
  net::Flow* small = f.net->create_flow(1, 7, f.net->bdp() * 3, TimePoint(us(1)));
  f.net->sim().run(TimePoint(ms(30)));
  ASSERT_TRUE(big->finished());
  ASSERT_TRUE(small->finished());
  EXPECT_LT(small->finish_time, big->finish_time);
}

TEST(PhostTest, TokenExpiryUnblocksBusySender) {
  // Sender 0 serves two receivers; each receiver grants it tokens at line
  // rate but the sender can only send one packet per MTU-time: half the
  // tokens expire and the receivers re-grant — everything still completes.
  PhostFixture f;
  f.net->create_flow(0, 6, f.net->bdp() * 10, TimePoint{});
  f.net->create_flow(0, 7, f.net->bdp() * 10, TimePoint{});
  f.net->sim().run(TimePoint(ms(60)));
  EXPECT_EQ(f.net->completed_flows, 2u);
  const std::uint64_t expired = f.host(6)->counters().tokens_expired +
                                f.host(7)->counters().tokens_expired;
  EXPECT_GT(expired, 0u);
}

TEST(PhostTest, IncastCompletesViaRetransmission) {
  net::LeafSpineParams p;
  p.racks = 4;
  p.hosts_per_rack = 8;
  p.spines = 2;
  p.buffer_bytes = 100 * kKB;
  PhostFixture f(p);
  std::vector<int> senders;
  for (int i = 1; i <= 20; ++i) senders.push_back(i);
  workload::schedule_incast(*f.net, 0, senders, Bytes{100'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(60)));
  EXPECT_EQ(f.net->completed_flows, 20u);
  EXPECT_GT(f.net->total_drops(), 0u);  // free-token burst overflowed
}

TEST(PhostTest, SurvivesRandomLoss) {
  net::LeafSpineParams p = small_topo();
  p.port_customize = [](net::PortConfig& pc) { pc.loss_rate = 0.02; };
  PhostFixture f(p);
  for (int i = 0; i < 6; ++i) {
    f.net->create_flow(i % 4, 4 + (i % 4), Bytes{200'000}, TimePoint(us(i)));
  }
  f.net->sim().run(TimePoint(ms(80)));
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

// ---- size-unaware dcPIM (§3.5 unknown-size regime) -------------------------

struct BlindDcpimFixture {
  BlindDcpimFixture() : net(std::make_unique<net::Network>(net::NetConfig{})) {
    cfg.flow_size_aware = false;
    topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
        *net, small_topo(), core::dcpim_host_factory(cfg)));
  }
  core::DcpimConfig cfg;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
};

TEST(DcpimSizeUnawareTest, TrafficStillCompletes) {
  BlindDcpimFixture f;
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::web_search();
  pc.load = 0.4;
  pc.stop = TimePoint(us(300));
  workload::PoissonGenerator gen(*f.net, f.topo->host_rate(), pc);
  gen.start();
  f.net->sim().run(TimePoint(ms(20)));
  EXPECT_GT(f.net->num_flows(), 0u);
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

TEST(DcpimSizeUnawareTest, NoSrptMeansFifoServiceWithinSender) {
  // Two long flows from the same sender: without size info the earlier one
  // is served first regardless of size.
  BlindDcpimFixture f;
  net::Flow* first = f.net->create_flow(0, 7, f.net->bdp() * 20, TimePoint{});
  net::Flow* second = f.net->create_flow(0, 7, f.net->bdp() * 2, TimePoint(us(5)));
  f.net->sim().run(TimePoint(ms(40)));
  ASSERT_TRUE(first->finished());
  ASSERT_TRUE(second->finished());
  EXPECT_LT(first->finish_time, second->finish_time);
}

}  // namespace
}  // namespace dcpim
