// Behavioural tests for the shared window-transport machinery through its
// concrete protocols (TCP / DCTCP / HPCC): slow start, loss response,
// timeouts, and ECN/INT reactions.
#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "proto/dctcp.h"
#include "proto/hpcc.h"
#include "proto/tcp.h"

namespace dcpim::proto {
namespace {

net::LeafSpineParams small_topo() {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  return p;
}

template <typename HostT>
struct Fix {
  Fix(net::Topology::HostFactory (*factory)(),
      net::PortCustomize customize = {})
      : net(std::make_unique<net::Network>(make_ncfg())) {
    net::LeafSpineParams p = small_topo();
    p.port_customize = std::move(customize);
    topo = std::make_unique<net::Topology>(
        net::Topology::leaf_spine(*net, p, factory()));
  }
  static net::NetConfig make_ncfg() {
    net::NetConfig ncfg;
    ncfg.lb_policy = net::LbPolicy::kEcmpFlow;
    return ncfg;
  }
  HostT* host(int i) { return static_cast<HostT*>(net->host(i)); }
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
};

TEST(WindowTransportTest, LoneTcpFlowNearOracle) {
  Fix<TcpHost> f(&tcp_host_factory);
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{400'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(10)));
  ASSERT_TRUE(flow->finished());
  // Initial window = 1 BDP, so a lone flow is pipe-limited, not cwnd-bound.
  const Time oracle = f.topo->oracle_fct(0, 7, Bytes{400'000});
  EXPECT_LT(fratio(flow->fct(), oracle), 1.6);
}

TEST(WindowTransportTest, TimeoutRecoversFromBlackoutLoss) {
  Fix<TcpHost> f(&tcp_host_factory,
                 [](net::PortConfig& pc) { pc.loss_rate = 0.10; });
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{100'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(200)));
  ASSERT_TRUE(flow->finished());
  const auto& c = f.host(0)->counters();
  EXPECT_GT(c.retransmissions, 0u);
  // The RTO path: everything in flight is resent from a one-MSS window.
  EXPECT_GT(c.timeouts, 0u);
}

TEST(WindowTransportTest, DctcpSeesEcnAndStillFinishesFast) {
  Fix<DctcpHost> f(&dctcp_host_factory, [](net::PortConfig& pc) {
    dctcp_port_customize(pc, kKB * 30);
  });
  // Two senders into one receiver: queue builds, ECN marks, no collapse.
  net::Flow* f1 = f.net->create_flow(0, 7, Bytes{400'000}, TimePoint{});
  net::Flow* f2 = f.net->create_flow(1, 7, Bytes{400'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(20)));
  ASSERT_TRUE(f1->finished());
  ASSERT_TRUE(f2->finished());
  const auto ecn = f.host(0)->counters().ecn_echoes +
                   f.host(1)->counters().ecn_echoes;
  EXPECT_GT(ecn, 0u);
}

TEST(WindowTransportTest, HpccKeepsQueuesShorterThanTcpUnderIncast) {
  auto run = [](bool hpcc) {
    std::uint64_t drops = 0;
    if (hpcc) {
      Fix<HpccHost> f(&hpcc_host_factory, hpcc_port_customize);
      std::vector<int> senders{1, 2, 3, 4, 5, 6};
      for (int s : senders) f.net->create_flow(s, 0, Bytes{300'000}, TimePoint{});
      f.net->sim().run(TimePoint(ms(30)));
      drops = f.net->total_drops();
      EXPECT_EQ(f.net->completed_flows, senders.size());
    } else {
      Fix<TcpHost> f(&tcp_host_factory);
      std::vector<int> senders{1, 2, 3, 4, 5, 6};
      for (int s : senders) f.net->create_flow(s, 0, Bytes{300'000}, TimePoint{});
      f.net->sim().run(TimePoint(ms(30)));
      drops = f.net->total_drops();
      EXPECT_EQ(f.net->completed_flows, senders.size());
    }
    return drops;
  };
  EXPECT_LE(run(true), run(false));  // PFC+INT: no drops; TCP: maybe many
}

}  // namespace
}  // namespace dcpim::proto
