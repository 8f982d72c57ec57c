// Protocol tests for the baselines: Homa(+Aeolus), NDP, and the
// window-based family (HPCC / DCTCP / TCP).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "net/topology.h"
#include "proto/dctcp.h"
#include "proto/homa.h"
#include "proto/hpcc.h"
#include "proto/ndp.h"
#include "proto/tcp.h"
#include "workload/generator.h"

namespace dcpim::proto {
namespace {

net::LeafSpineParams small_topo() {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  return p;
}

// ===== Homa / Aeolus =========================================================

struct HomaFixture {
  explicit HomaFixture(bool aeolus, net::LeafSpineParams p = small_topo(),
                       net::NetConfig ncfg = net::NetConfig{})
      : net(std::make_unique<net::Network>(ncfg)) {
    if (aeolus) {
      auto prev = p.port_customize;
      p.port_customize = [prev](net::PortConfig& pc) {
        if (prev) prev(pc);
        homa_port_customize(pc);
      };
    }
    topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
        *net, p, homa_host_factory(aeolus)));
  }
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
  HomaHost* host(int i) { return static_cast<HomaHost*>(net->host(i)); }
};

TEST(HomaTest, ShortFlowIsPureUnscheduled) {
  HomaFixture f(false);
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{20'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(1)));
  ASSERT_TRUE(flow->finished());
  EXPECT_GT(f.host(0)->counters().unsched_sent, 0u);
  EXPECT_EQ(f.host(0)->counters().sched_sent, 0u);
  const Time oracle = f.topo->oracle_fct(0, 7, Bytes{20'000});
  EXPECT_LT(fratio(flow->fct(), oracle), 1.1);
}

TEST(HomaTest, LongFlowUsesGrants) {
  HomaFixture f(false);
  const Bytes size = f.net->bdp() * 5;
  net::Flow* flow = f.net->create_flow(0, 7, size, TimePoint{});
  f.net->sim().run(TimePoint(ms(3)));
  ASSERT_TRUE(flow->finished());
  EXPECT_GT(f.host(7)->counters().grants_sent, 0u);
  EXPECT_GT(f.host(0)->counters().sched_sent, 0u);
}

TEST(HomaTest, SmallerFlowsGetHigherUnscheduledPriority) {
  // Geometric defaults on the BDP scale: <= BDP/8 -> 1, <= BDP/2 -> 2,
  // <= 2 BDP -> 3, else 4.
  HomaFixture f(false);
  std::map<std::uint64_t, int> priority;  // first unscheduled packet's
  f.net->add_inject_observer([&priority](const net::Packet& p) {
    if (p.unscheduled) priority.emplace(p.flow_id, p.priority);
  });
  const Bytes bdp = f.net->bdp();
  const net::Flow* tiny = f.net->create_flow(0, 7, bdp / 8, TimePoint{});
  const net::Flow* small = f.net->create_flow(1, 6, bdp / 2, TimePoint{});
  const net::Flow* mid = f.net->create_flow(2, 5, bdp * 2, TimePoint{});
  const net::Flow* big = f.net->create_flow(3, 4, bdp * 4, TimePoint{});
  f.net->sim().run(TimePoint(us(100)));
  EXPECT_EQ(priority[tiny->id], 1);
  EXPECT_EQ(priority[small->id], 2);
  EXPECT_EQ(priority[mid->id], 3);
  EXPECT_EQ(priority[big->id], 4);
}

TEST(HomaTest, OvercommitGrantsMultipleFlows) {
  HomaFixture f(false);
  // Three long flows into receiver 7; overcommit=2 grants two at a time.
  for (int s = 0; s < 3; ++s) {
    f.net->create_flow(s, 7, f.net->bdp() * 6, TimePoint{});
  }
  f.net->sim().run(TimePoint(ms(10)));
  EXPECT_EQ(f.net->completed_flows, 3u);
}

TEST(HomaTest, PlainHomaRecoversViaResendTimer) {
  net::LeafSpineParams p = small_topo();
  p.port_customize = [](net::PortConfig& pc) { pc.loss_rate = 0.03; };
  HomaFixture f(false, p);
  for (int i = 0; i < 6; ++i) {
    f.net->create_flow(i % 4, 4 + (i % 4), f.net->bdp() * 2,
                       TimePoint(us(i)));
  }
  f.net->sim().run(TimePoint(ms(60)));
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
  std::uint64_t resends = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    resends += f.host(h)->counters().resend_requests;
  }
  EXPECT_GT(resends, 0u);
}

TEST(AeolusTest, SelectiveDroppingSparesScheduledPackets) {
  // Heavy incast of unscheduled bursts into one receiver with the Aeolus
  // threshold active: unscheduled drops happen, yet everything completes
  // through probe-triggered scheduled retransmission.
  net::LeafSpineParams p;
  p.racks = 4;
  p.hosts_per_rack = 8;
  p.spines = 2;
  p.buffer_bytes = 100 * kKB;
  HomaFixture f(true, p);
  std::vector<int> senders;
  for (int i = 1; i <= 30; ++i) senders.push_back(i);
  workload::schedule_incast(*f.net, 0, senders, Bytes{60'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(30)));
  EXPECT_EQ(f.net->completed_flows, 30u);
  EXPECT_GT(f.net->total_drops(), 0u);
  std::uint64_t probes = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    probes += f.host(h)->counters().probes_sent;
  }
  EXPECT_EQ(probes, 30u);  // one probe per flow
}

TEST(AeolusTest, RecoversFasterThanPlainHomaUnderIncast) {
  auto run = [](bool aeolus) {
    net::LeafSpineParams p;
    p.racks = 4;
    p.hosts_per_rack = 8;
    p.spines = 2;
    p.buffer_bytes = 100 * kKB;
    HomaFixture f(aeolus, p);
    std::vector<int> senders;
    for (int i = 1; i <= 30; ++i) senders.push_back(i);
    workload::schedule_incast(*f.net, 0, senders, Bytes{60'000}, TimePoint{});
    f.net->sim().run(TimePoint(ms(60)));
    TimePoint last_finish{};
    for (const auto& flow : f.net->flows()) {
      EXPECT_TRUE(flow->finished());
      last_finish = std::max(last_finish, flow->finish_time);
    }
    return last_finish;
  };
  const TimePoint aeolus_done = run(true);
  const TimePoint homa_done = run(false);
  EXPECT_LT(aeolus_done, homa_done);
}

// ===== NDP ===================================================================

struct NdpFixture {
  explicit NdpFixture(net::LeafSpineParams p = small_topo())
      : net(std::make_unique<net::Network>(net::NetConfig{})) {
    auto prev = p.port_customize;
    p.port_customize = [prev](net::PortConfig& pc) {
      if (prev) prev(pc);
      ndp_port_customize(pc);
    };
    topo = std::make_unique<net::Topology>(
        net::Topology::leaf_spine(*net, p, ndp_host_factory()));
  }
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
  NdpHost* host(int i) { return static_cast<NdpHost*>(net->host(i)); }
};

TEST(NdpTest, SingleFlowCompletes) {
  NdpFixture f;
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{500'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(5)));
  ASSERT_TRUE(flow->finished());
  EXPECT_GT(f.host(7)->counters().pulls_sent, 0u);
}

TEST(NdpTest, IncastTrimsInsteadOfDropping) {
  net::LeafSpineParams p;
  p.racks = 4;
  p.hosts_per_rack = 8;
  p.spines = 2;
  NdpFixture f(p);
  std::vector<int> senders;
  for (int i = 1; i <= 20; ++i) senders.push_back(i);
  workload::schedule_incast(*f.net, 0, senders, Bytes{100'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(30)));
  EXPECT_EQ(f.net->completed_flows, 20u);
  EXPECT_GT(f.net->total_trims(), 0u);
  std::uint64_t nacks = 0, retx = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    nacks += f.host(h)->counters().nacks_sent;
    retx += f.host(h)->counters().retransmissions;
  }
  EXPECT_GT(nacks, 0u);
  EXPECT_GT(retx, 0u);
}

TEST(NdpTest, TrimmedHeadersTriggerTimelyRetransmit) {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 1;
  NdpFixture f(p);
  // Two senders overload one receiver: trims guaranteed.
  net::Flow* f1 = f.net->create_flow(0, 4, Bytes{300'000}, TimePoint{});
  net::Flow* f2 = f.net->create_flow(1, 4, Bytes{300'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(5)));
  EXPECT_TRUE(f1->finished());
  EXPECT_TRUE(f2->finished());
  EXPECT_EQ(f.net->total_drops(), 0u);  // trimming, never dropping
}

TEST(NdpTest, SurvivesRandomControlLoss) {
  net::LeafSpineParams p = small_topo();
  p.port_customize = [](net::PortConfig& pc) { pc.loss_rate = 0.02; };
  NdpFixture f(p);
  for (int i = 0; i < 6; ++i) {
    f.net->create_flow(i % 4, 4 + (i % 4), Bytes{200'000}, TimePoint(us(i)));
  }
  f.net->sim().run(TimePoint(ms(60)));
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

// ===== window family (HPCC / DCTCP / TCP) ==================================

struct WinFixture {
  WinFixture(net::Topology::HostFactory factory, net::PortCustomize customize,
             bool spraying = false)
      : net(std::make_unique<net::Network>(make_ncfg(spraying))) {
    net::LeafSpineParams p = small_topo();
    p.port_customize = std::move(customize);
    topo = std::make_unique<net::Topology>(
        net::Topology::leaf_spine(*net, p, factory));
  }
  static net::NetConfig make_ncfg(bool spraying) {
    net::NetConfig ncfg;
    ncfg.lb_policy =
        spraying ? net::LbPolicy::kSpray : net::LbPolicy::kEcmpFlow;
    return ncfg;
  }
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::Topology> topo;
};

TEST(HpccTest, SingleFlowCompletesWithIntFeedback) {
  WinFixture f(hpcc_host_factory(), hpcc_port_customize);
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{500'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(10)));
  ASSERT_TRUE(flow->finished());
  auto* h = static_cast<HpccHost*>(f.net->host(0));
  EXPECT_GT(h->counters().data_sent, 0u);
}

TEST(HpccTest, CongestionShrinksWindowNoDrops) {
  WinFixture f(hpcc_host_factory(), hpcc_port_customize);
  // 6:1 incast: PFC + INT should avoid drops entirely.
  std::vector<int> senders{1, 2, 3, 4, 5, 6};
  workload::schedule_incast(*f.net, 0, senders, Bytes{400'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(20)));
  EXPECT_EQ(f.net->completed_flows, 6u);
  EXPECT_EQ(f.net->total_drops(), 0u);
}

TEST(HpccTest, PfcPausesFireUnderIncast) {
  WinFixture f(hpcc_host_factory(), [](net::PortConfig& pc) {
    hpcc_port_customize(pc);
    pc.pfc_pause_threshold = kKB * 30;  // aggressive to force pauses
    pc.pfc_resume_threshold = kKB * 15;
  });
  std::vector<int> senders{1, 2, 3, 4, 5, 6, 7};
  workload::schedule_incast(*f.net, 0, senders, Bytes{400'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(20)));
  std::uint64_t pauses = 0;
  for (const auto& dev : f.net->devices()) {
    if (dev->kind() == net::Device::Kind::Switch) {
      pauses += static_cast<net::Switch*>(dev.get())->pfc_pauses_sent;
    }
  }
  EXPECT_GT(pauses, 0u);
  EXPECT_EQ(f.net->completed_flows, 7u);
}

TEST(DctcpTest, EcnKeepsQueuesShortWithoutCollapse) {
  WinFixture f(dctcp_host_factory(), [](net::PortConfig& pc) {
    dctcp_port_customize(pc, kKB * 40);
  });
  std::vector<int> senders{1, 2, 3, 4};
  workload::schedule_incast(*f.net, 0, senders, Bytes{400'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(20)));
  EXPECT_EQ(f.net->completed_flows, 4u);
  auto* h = static_cast<DctcpHost*>(f.net->host(1));
  EXPECT_GT(h->counters().ecn_echoes, 0u);
}

TEST(TcpTest, CompetingFlowsCompleteAndLossesRecover) {
  WinFixture f(tcp_host_factory(), net::PortCustomize{});
  std::vector<int> senders{1, 2, 3, 4, 5, 6};
  workload::schedule_incast(*f.net, 0, senders, Bytes{300'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(60)));
  EXPECT_EQ(f.net->completed_flows, 6u);
}

TEST(TcpTest, SurvivesRandomLoss) {
  WinFixture f(tcp_host_factory(),
               [](net::PortConfig& pc) { pc.loss_rate = 0.01; });
  for (int i = 0; i < 4; ++i) {
    f.net->create_flow(i, 7 - i, Bytes{150'000}, TimePoint(us(i)));
  }
  f.net->sim().run(TimePoint(ms(100)));
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

TEST(WindowTest, FastRetransmitTriggersOnGap) {
  WinFixture f(tcp_host_factory(),
               [](net::PortConfig& pc) { pc.loss_rate = 0.05; });
  f.net->create_flow(0, 7, Bytes{400'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(100)));
  EXPECT_EQ(f.net->completed_flows, 1u);
  auto* h = static_cast<TcpHost*>(f.net->host(0));
  EXPECT_GT(h->counters().retransmissions, 0u);
}

}  // namespace
}  // namespace dcpim::proto
