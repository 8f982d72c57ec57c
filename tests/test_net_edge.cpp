// Network-substrate edge cases: spraying fairness, control-plane latency
// under data congestion, PFC hysteresis, trimming/ECN boundaries, and
// topology property sweeps.
#include <gtest/gtest.h>

#include <memory>

#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "net/topology.h"

namespace dcpim::net {
namespace {

class SinkHost : public Host {
 public:
  using Host::Host;
  void on_flow_arrival(Flow&) override {}
  std::vector<PacketPtr> received;
  std::vector<TimePoint> arrival_times;

  PacketPtr make_raw(int dst, Bytes size, std::uint8_t prio, bool control) {
    auto p = std::make_unique<Packet>();
    p->src = host_id();
    p->dst = dst;
    p->size = size;
    p->payload = control ? Bytes{} : std::max(Bytes{}, size - Bytes{40});
    p->priority = prio;
    p->control = control;
    p->created_at = network().sim().now();
    return p;
  }
  void inject(PacketPtr p) { send(std::move(p)); }

 protected:
  void on_packet(PacketPtr p) override {
    arrival_times.push_back(network().sim().now());
    received.push_back(std::move(p));
  }
};

class BlastHost : public Host {
 public:
  using Host::Host;
  void on_flow_arrival(Flow& flow) override {
    const std::uint32_t n = flow.seq_count();
    for (std::uint32_t seq = 0; seq < n; ++seq) {
      send(make_data_packet(flow, {.seq = seq, .priority = 2}));
    }
  }

 protected:
  void on_packet(PacketPtr p) override { accept_data(*p); }
};

template <typename HostT>
Topology::HostFactory factory_of() {
  return [](Network& net, int id) -> Host* {
    return net.add_device<HostT>(id);
  };
}

TEST(SprayingTest, UplinkLoadIsBalanced) {
  NetConfig ncfg;
  ncfg.lb_policy = net::LbPolicy::kSpray;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 1;
  p.spines = 4;
  auto topo = Topology::leaf_spine(net, p, factory_of<BlastHost>());
  (void)topo;
  net.create_flow(0, 1, Bytes{3'000'000}, TimePoint{});  // ~2000 packets
  net.sim().run();
  std::vector<std::uint64_t> counts;
  for (const auto& dev : net.devices()) {
    if (dev->name() != "leaf0") continue;
    for (const auto& port : dev->ports) {
      if (port->peer()->kind() == Device::Kind::Switch) {
        counts.push_back(static_cast<std::uint64_t>(port->tx_packets.raw()));
      }
    }
  }
  ASSERT_EQ(counts.size(), 4u);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / static_cast<double>(total), 0.25,
                0.05);
  }
}

TEST(ControlPlaneTest, ControlLatencyUnaffectedByDataCongestion) {
  // Saturate the path with low-priority data, then time a control packet:
  // strict priority must keep its latency near unloaded.
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 2;
  p.spines = 1;
  auto topo = Topology::leaf_spine(net, p, factory_of<SinkHost>());
  auto* a = static_cast<SinkHost*>(net.host(0));
  auto* b = static_cast<SinkHost*>(net.host(3));
  for (int i = 0; i < 200; ++i) a->inject(a->make_raw(3, Bytes{1540}, 3, false));
  a->inject(a->make_raw(3, Bytes{64}, 0, true));
  net.sim().run();
  TimePoint control_arrival = kTimeUnset;
  for (std::size_t i = 0; i < b->received.size(); ++i) {
    if (b->received[i]->control) control_arrival = b->arrival_times[i];
  }
  ASSERT_NE(control_arrival, kTimeUnset);
  // One full data packet may already be serializing on each of the four
  // links along the path (strict priority is non-preemptive).
  const Time budget = topo.one_way_control(0, 3) + us(0.12) * 4 + us(0.05);
  EXPECT_LE(control_arrival, TimePoint(budget));
}

TEST(PfcTest, HysteresisAvoidsPauseFlapping) {
  PortConfig link;
  link.rate = 100 * kGbps;
  link.propagation = ns(200);
  link.pfc_enable = true;
  link.pfc_pause_threshold = Bytes{10 * 1540};
  link.pfc_resume_threshold = Bytes{3 * 1540};
  NetConfig ncfg;
  Network net(ncfg);
  auto* a = net.add_device<SinkHost>(0);
  auto* b = net.add_device<SinkHost>(1);
  auto* sw = net.add_device<Switch>("sw");
  Network::connect(*a, *sw, link);
  PortConfig slow = link;
  slow.rate = 10 * kGbps;
  Network::connect(*b, *sw, link, slow);
  sw->add_route(0, 0);
  sw->add_route(1, 1);
  for (int i = 0; i < 100; ++i) a->inject(a->make_raw(1, Bytes{1540}, 2, false));
  net.sim().run();
  EXPECT_EQ(b->received.size(), 100u);
  // With a wide hysteresis band, pauses happen but far fewer than packets.
  EXPECT_GT(sw->pfc_pauses_sent, 0u);
  EXPECT_LT(sw->pfc_pauses_sent, 30u);
}

TEST(TrimTest, ControlPacketsAreNeverTrimmed) {
  PortConfig link;
  link.rate = 100 * kGbps;
  link.propagation = ns(200);
  link.trim_enable = true;
  link.trim_queue_cap = Bytes{1540};  // trims almost everything
  NetConfig ncfg;
  Network net(ncfg);
  auto* a = net.add_device<SinkHost>(0);
  auto* b = net.add_device<SinkHost>(1);
  auto* sw = net.add_device<Switch>("sw");
  Network::connect(*a, *sw, link);
  Network::connect(*b, *sw, link);
  sw->add_route(0, 0);
  sw->add_route(1, 1);
  for (int i = 0; i < 10; ++i) a->inject(a->make_raw(1, Bytes{1540}, 2, false));
  for (int i = 0; i < 10; ++i) a->inject(a->make_raw(1, Bytes{64}, 0, true));
  net.sim().run();
  for (const auto& pkt : b->received) {
    if (pkt->control) {
      EXPECT_FALSE(pkt->trimmed);
    }
  }
}

TEST(EcnTest, BelowThresholdNoMarks) {
  PortConfig link;
  link.rate = 100 * kGbps;
  link.propagation = ns(200);
  link.ecn_threshold = Bytes{1'000'000};  // effectively never
  NetConfig ncfg;
  Network net(ncfg);
  auto* a = net.add_device<SinkHost>(0);
  auto* b = net.add_device<SinkHost>(1);
  auto* sw = net.add_device<Switch>("sw");
  Network::connect(*a, *sw, link);
  Network::connect(*b, *sw, link);
  sw->add_route(0, 0);
  sw->add_route(1, 1);
  for (int i = 0; i < 50; ++i) a->inject(a->make_raw(1, Bytes{1540}, 2, false));
  net.sim().run();
  for (const auto& pkt : b->received) EXPECT_FALSE(pkt->ecn_ce);
}

TEST(IntTest, CollectIntStampsEveryHop) {
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 1;
  p.spines = 1;
  auto topo = Topology::leaf_spine(net, p, factory_of<SinkHost>());
  (void)topo;
  auto* a = static_cast<SinkHost*>(net.host(0));
  auto* b = static_cast<SinkHost*>(net.host(1));
  // INT records ride only in an IntPacket, which sets collect_int itself.
  PacketPtr pkt = std::make_unique<IntPacket>();
  pkt->src = 0;
  pkt->dst = 1;
  pkt->size = Bytes{1540};
  pkt->payload = Bytes{1500};
  pkt->priority = 2;
  a->inject(std::move(pkt));
  net.sim().run();
  ASSERT_EQ(b->received.size(), 1u);
  ASSERT_TRUE(b->received[0]->collect_int);
  const auto& hops = packet_cast<IntPacket>(*b->received[0]).int_hops;
  // host NIC + leaf0 + spine + leaf1 = 4 egress stamps.
  EXPECT_EQ(hops.size(), 4u);
  for (const auto& hop : hops) {
    EXPECT_GT(hop.rate, BitsPerSec{});
    EXPECT_GE(hop.timestamp, TimePoint{});
  }
}

TEST(PfcTest, DroppedPacketsReleaseIngressAccounting) {
  // Regression: a packet counted by PFC ingress accounting and then dropped
  // at a full egress queue must still release its bytes — otherwise the
  // upstream port stays paused forever (deadlock under incast bursts).
  PortConfig link;
  link.rate = 100 * kGbps;
  link.propagation = ns(200);
  link.buffer_bytes = Bytes{5 * 1540};  // tiny egress: drops guaranteed
  link.pfc_enable = true;
  link.pfc_pause_threshold = Bytes{8 * 1540};
  link.pfc_resume_threshold = Bytes{3 * 1540};
  NetConfig ncfg;
  Network net(ncfg);
  auto* a = net.add_device<SinkHost>(0);
  auto* b = net.add_device<SinkHost>(1);
  auto* sw = net.add_device<Switch>("sw");
  PortConfig host_side = link;
  host_side.buffer_bytes = kKB * 500;  // host NICs never drop here
  Network::connect(*a, *sw, host_side, link);
  PortConfig slow = link;
  slow.rate = 5 * kGbps;  // switch->b is the bottleneck
  Network::connect(*b, *sw, host_side, slow);
  sw->add_route(0, 0);
  sw->add_route(1, 1);
  // Burst far beyond the egress buffer: drops + pauses happen.
  for (int i = 0; i < 200; ++i) a->inject(a->make_raw(1, Bytes{1540}, 2, false));
  net.sim().run(TimePoint(ms(5)));
  EXPECT_GT(net.total_drops(), 0u);
  // After the dust settles the upstream must be unpaused and the switch's
  // ingress accounting drained.
  EXPECT_FALSE(a->nic()->paused());
  for (const auto& port : sw->ports) {
    EXPECT_EQ(sw->ingress_buffered(port->index()), Bytes{});
  }
  // And traffic flows again.
  const std::size_t before = b->received.size();
  a->inject(a->make_raw(1, Bytes{1540}, 2, false));
  net.sim().run(TimePoint(ms(6)));
  EXPECT_GT(b->received.size(), before);
}

// ---- FatTree property sweep ------------------------------------------------

class FatTreeParamTest : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeParamTest, ShapeRoutingAndOracle) {
  const int k = GetParam();
  NetConfig ncfg;
  Network net(ncfg);
  FatTreeParams p;
  p.k = k;
  auto topo = Topology::fat_tree(net, p, factory_of<BlastHost>());
  EXPECT_EQ(topo.num_hosts(), k * k * k / 4);
  // Cross-pod flow completes at ~oracle.
  const int last = topo.num_hosts() - 1;
  Flow* flow = net.create_flow(0, last, Bytes{146'000}, TimePoint{});
  net.sim().run();
  ASSERT_TRUE(flow->finished());
  const Time oracle = topo.oracle_fct(0, last, Bytes{146'000});
  EXPECT_GE(flow->fct(), oracle);
  EXPECT_LT(fratio(flow->fct(), oracle), 1.05);
}

INSTANTIATE_TEST_SUITE_P(Ks, FatTreeParamTest, ::testing::Values(4, 6, 8));

// ---- oracle consistency across pair classes --------------------------------

TEST(OracleTest, LoneFlowMatchesOracleForEveryPairClass) {
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 3;
  p.hosts_per_rack = 2;
  p.spines = 2;
  auto topo = Topology::leaf_spine(net, p, factory_of<BlastHost>());
  // One intra-rack pair and one inter-rack pair, run sequentially.
  struct Case {
    int src, dst;
  };
  for (const Case c : {Case{0, 1}, Case{0, 5}}) {
    Flow* flow = net.create_flow(c.src, c.dst, Bytes{100'000},
                                 net.sim().now() + us(1));
    net.sim().run();
    ASSERT_TRUE(flow->finished());
    const Time oracle = topo.oracle_fct(c.src, c.dst, Bytes{100'000});
    EXPECT_GE(flow->fct(), oracle);
    EXPECT_LT(fratio(flow->fct(), oracle), 1.05) << c.src << "->" << c.dst;
  }
}

}  // namespace
}  // namespace dcpim::net
