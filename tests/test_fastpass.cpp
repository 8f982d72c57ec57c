// Tests for the Fastpass-style centralized baseline and its comparison
// against dcPIM on short-flow latency (the §5 related-work claim).
#include <gtest/gtest.h>

#include <memory>

#include "core/dcpim_host.h"
#include "net/topology.h"
#include "proto/fastpass.h"
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

struct FastpassFixture {
  explicit FastpassFixture(net::LeafSpineParams p = small_topo())
      : net(std::make_unique<net::Network>(net::NetConfig{})),
        arbiter(std::make_unique<FastpassArbiter>(*net)) {
    topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
        *net, p, fastpass_host_factory(*arbiter)));
  }
  std::unique_ptr<net::Network> net;
  std::unique_ptr<FastpassArbiter> arbiter;
  std::unique_ptr<net::Topology> topo;
  FastpassHost* host(int i) {
    return static_cast<FastpassHost*>(net->host(i));
  }
};

TEST(FastpassTest, SingleFlowCompletes) {
  FastpassFixture f;
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{300'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(5)));
  ASSERT_TRUE(flow->finished());
  EXPECT_GT(f.arbiter->slots_allocated(), 0u);
  EXPECT_GE(f.host(0)->counters().data_sent,
            std::uint64_t{flow->seq_count()});
}

TEST(FastpassTest, ShortFlowPaysTheArbiterRoundTrip) {
  // The design's documented cost: even a one-packet flow waits for the
  // request->allocation round trip before its first byte moves (§5:
  // "at least 2x away from optimal").
  FastpassFixture f;
  net::Flow* flow = f.net->create_flow(0, 7, Bytes{1'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(2)));
  ASSERT_TRUE(flow->finished());
  const Time oracle = f.topo->oracle_fct(0, 7, Bytes{1'000});
  EXPECT_GE(flow->fct(), oracle + f.net->max_control_rtt());
  EXPECT_GE(fratio(flow->fct(), oracle), 1.8);
}

TEST(FastpassTest, DcpimBeatsFastpassOnShortFlows) {
  // Same 1KB RPC, same fabric: dcPIM's bypass path wins by design.
  Time fastpass_fct, dcpim_fct;
  {
    FastpassFixture f;
    net::Flow* flow = f.net->create_flow(0, 7, Bytes{1'000}, TimePoint{});
    f.net->sim().run(TimePoint(ms(2)));
    fastpass_fct = flow->fct();
  }
  {
    core::DcpimConfig dcfg;
    auto net = std::make_unique<net::Network>(net::NetConfig{});
    auto topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
        *net, small_topo(), core::dcpim_host_factory(dcfg)));
    net::Flow* flow = net->create_flow(0, 7, Bytes{1'000}, TimePoint{});
    net->sim().run(TimePoint(ms(2)));
    dcpim_fct = flow->fct();
  }
  EXPECT_LT(2 * dcpim_fct, fastpass_fct);
}

TEST(FastpassTest, IncastIsCollisionFreeAtTheDownlink) {
  // The arbiter's whole point: one sender per receiver per timeslot, so an
  // incast produces (near) zero drops even with small buffers.
  net::LeafSpineParams p;
  p.racks = 4;
  p.hosts_per_rack = 8;
  p.spines = 2;
  p.buffer_bytes = kKB * 100;
  FastpassFixture f(p);
  std::vector<int> senders;
  for (int i = 1; i <= 20; ++i) senders.push_back(i);
  workload::schedule_incast(*f.net, 0, senders, Bytes{100'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(30)));
  EXPECT_EQ(f.net->completed_flows, 20u);
  EXPECT_EQ(f.net->total_drops(), 0u);
}

TEST(FastpassTest, ArbitersMatchingIsOneToOnePerSlot) {
  FastpassFixture f;
  // Two flows from the same sender: slots must alternate, both complete.
  f.net->create_flow(0, 6, Bytes{150'000}, TimePoint{});
  f.net->create_flow(0, 7, Bytes{150'000}, TimePoint{});
  f.net->sim().run(TimePoint(ms(5)));
  EXPECT_EQ(f.net->completed_flows, 2u);
}

TEST(FastpassTest, RecoversFromRandomLoss) {
  net::LeafSpineParams p = small_topo();
  p.port_customize = [](net::PortConfig& pc) { pc.loss_rate = 0.02; };
  FastpassFixture f(p);
  for (int i = 0; i < 4; ++i) {
    f.net->create_flow(i, 7 - i, Bytes{150'000}, TimePoint(us(i)));
  }
  f.net->sim().run(TimePoint(ms(100)));
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
  std::uint64_t rereq = 0;
  for (int h = 0; h < f.net->num_hosts(); ++h) {
    rereq += f.host(h)->counters().rerequests;
  }
  EXPECT_GT(rereq, 0u);
}

TEST(FastpassTest, AllToAllTrafficCompletes) {
  FastpassFixture f;
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::imc10();
  pc.load = 0.4;
  pc.stop = TimePoint(us(200));
  workload::PoissonGenerator gen(*f.net, f.topo->host_rate(), pc);
  gen.start();
  f.net->sim().run(TimePoint(ms(20)));
  EXPECT_GT(f.net->num_flows(), 0u);
  EXPECT_EQ(f.net->completed_flows, f.net->num_flows());
}

}  // namespace
}  // namespace dcpim::proto
