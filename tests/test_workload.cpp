// Unit tests: empirical CDFs and traffic generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/host.h"
#include "net/topology.h"
#include "util/rng.h"
#include "workload/cdf.h"
#include "workload/generator.h"

namespace dcpim::workload {
namespace {

class NullHost : public net::Host {
 public:
  using net::Host::Host;
  void on_flow_arrival(net::Flow&) override {}

 protected:
  void on_packet(net::PacketPtr) override {}
};

net::Topology::HostFactory null_factory() {
  return [](net::Network& net, int id) {
    return static_cast<net::Host*>(net.add_device<NullHost>(id));
  };
}

// ---- CDF behaviour ----------------------------------------------------------

class NamedCdfTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NamedCdfTest, QuantilesAreMonotone) {
  const EmpiricalCdf& cdf = workload_by_name(GetParam());
  Bytes prev{};
  for (double u = 0.0; u < 1.0; u += 0.05) {
    const Bytes q = cdf.quantile(u);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST_P(NamedCdfTest, SamplesWithinSupport) {
  const EmpiricalCdf& cdf = workload_by_name(GetParam());
  Rng rng(1);
  const double max_bytes = cdf.points().back().bytes;
  for (int i = 0; i < 20'000; ++i) {
    const Bytes s = cdf.sample(rng);
    ASSERT_GE(s, Bytes{1});
    ASSERT_LE(static_cast<double>(s.raw()), max_bytes + 1);
  }
}

TEST_P(NamedCdfTest, EmpiricalMeanMatchesAnalytic) {
  const EmpiricalCdf& cdf = workload_by_name(GetParam());
  Rng rng(2);
  double sum = 0;
  const int n = 400'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(cdf.sample(rng).raw());
  const double empirical = sum / n;
  EXPECT_NEAR(empirical / cdf.mean_bytes(), 1.0, 0.08);
}

TEST_P(NamedCdfTest, CdfAtIsInverseOfQuantile) {
  const EmpiricalCdf& cdf = workload_by_name(GetParam());
  for (double u : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const Bytes q = cdf.quantile(u);
    EXPECT_NEAR(cdf.cdf_at(static_cast<double>(q.raw())), u, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, NamedCdfTest,
                         ::testing::Values("imc10", "websearch", "datamining"));

TEST(CdfTest, WorkloadShapesMatchLiterature) {
  // IMC10 is dominated by tiny flows; datamining is the most heavy-tailed.
  EXPECT_GT(imc10().cdf_at(10'000), 0.75);
  EXPECT_GT(data_mining().cdf_at(10'000), 0.75);
  EXPECT_LT(web_search().cdf_at(10'000), 0.25);
  // Heavy tail: datamining mean is far above its median.
  EXPECT_GT(data_mining().mean_bytes(),
            50.0 * static_cast<double>(data_mining().quantile(0.5).raw()));
  EXPECT_GT(data_mining().mean_bytes(), web_search().mean_bytes());
  EXPECT_GT(web_search().mean_bytes(), imc10().mean_bytes());
}

TEST(CdfTest, FixedSizeAlwaysSame) {
  const EmpiricalCdf cdf = fixed_size_cdf(Bytes{73'000});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(cdf.sample(rng), Bytes{73'000});
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 73'000.0);
}

TEST(CdfTest, UnknownNameThrows) {
  EXPECT_THROW(workload_by_name("nope"), std::invalid_argument);
}

// ---- generators -----------------------------------------------------------

struct GenFixture {
  GenFixture() : net(net::NetConfig{}) {
    net::LeafSpineParams p;
    p.racks = 2;
    p.hosts_per_rack = 4;
    p.spines = 2;
    topo = net::Topology::leaf_spine(net, p, null_factory());
  }
  net::Network net;
  net::Topology topo;
};

TEST(PoissonGeneratorTest, LoadMatchesTarget) {
  GenFixture f;
  PoissonPatternConfig pc;
  pc.cdf = &web_search();
  pc.load = 0.5;
  pc.stop = TimePoint(ms(2));
  PoissonGenerator gen(f.net, f.topo.host_rate(), pc);
  gen.start();
  f.net.sim().run(TimePoint(ms(2)));
  Bytes offered{};
  for (const auto& flow : f.net.flows()) offered += flow->size;
  const double expected = 0.5 * 8 * static_cast<double>((kGbps * 100).raw()) /
                          8.0 / 8.0;  // 8 hosts * 0.5 * rate(bytes/s)
  const double offered_rate =
      static_cast<double>(offered.raw()) / to_sec(ms(2));
  // 8 senders at 0.5 load of 100G = 50 GB/s aggregate (bytes: 6.25e9/s/host).
  const double target = 8 * 0.5 * (100e9 / 8.0);
  (void)expected;
  EXPECT_NEAR(offered_rate / target, 1.0, 0.35);  // Poisson + heavy tail noise
}

TEST(PoissonGeneratorTest, NeverCreatesSelfFlows) {
  GenFixture f;
  PoissonPatternConfig pc;
  pc.cdf = &imc10();
  pc.load = 0.8;
  pc.stop = TimePoint(us(500));
  PoissonGenerator gen(f.net, f.topo.host_rate(), pc);
  gen.start();
  f.net.sim().run(TimePoint(us(500)));
  ASSERT_GT(f.net.num_flows(), 0u);
  for (const auto& flow : f.net.flows()) EXPECT_NE(flow->src, flow->dst);
}

TEST(PoissonGeneratorTest, RespectsSenderReceiverSets) {
  GenFixture f;
  PoissonPatternConfig pc;
  pc.cdf = &imc10();
  pc.load = 0.8;
  pc.senders = {0, 1};
  pc.receivers = {6, 7};
  pc.stop = TimePoint(us(500));
  PoissonGenerator gen(f.net, f.topo.host_rate(), pc);
  gen.start();
  f.net.sim().run(TimePoint(us(500)));
  ASSERT_GT(f.net.num_flows(), 0u);
  for (const auto& flow : f.net.flows()) {
    EXPECT_TRUE(flow->src == 0 || flow->src == 1);
    EXPECT_TRUE(flow->dst == 6 || flow->dst == 7);
  }
}

TEST(PoissonGeneratorTest, StopsAtStopTime) {
  GenFixture f;
  PoissonPatternConfig pc;
  pc.cdf = &imc10();
  pc.load = 0.9;
  pc.stop = TimePoint(us(100));
  PoissonGenerator gen(f.net, f.topo.host_rate(), pc);
  gen.start();
  f.net.sim().run(TimePoint(ms(1)));
  for (const auto& flow : f.net.flows()) {
    EXPECT_LE(flow->start_time, TimePoint(us(100) + us(50)));
  }
}

TEST(PoissonGeneratorTest, MaxFlowsCap) {
  GenFixture f;
  PoissonPatternConfig pc;
  pc.cdf = &imc10();
  pc.load = 0.9;
  pc.max_flows = 5;
  PoissonGenerator gen(f.net, f.topo.host_rate(), pc);
  gen.start();
  f.net.sim().run(TimePoint(ms(5)));
  EXPECT_LE(f.net.num_flows(), 5u + 8u);  // each sender may overshoot by one
}

TEST(IncastTest, CreatesFanInFlows) {
  GenFixture f;
  schedule_incast(f.net, 0, {1, 2, 3, 4, 5}, Bytes{128'000}, TimePoint(us(10)));
  f.net.sim().run(TimePoint(us(20)));
  EXPECT_EQ(f.net.num_flows(), 5u);
  for (const auto& flow : f.net.flows()) {
    EXPECT_EQ(flow->dst, 0);
    EXPECT_EQ(flow->size, Bytes{128'000});
    EXPECT_EQ(flow->start_time, TimePoint(us(10)));
  }
}

TEST(IncastTest, SkipsReceiverAsSender) {
  GenFixture f;
  schedule_incast(f.net, 2, {1, 2, 3}, Bytes{1000}, TimePoint{});
  f.net.sim().run(TimePoint(us(1)));
  EXPECT_EQ(f.net.num_flows(), 2u);
}

TEST(DenseTmTest, AllPairsOnce) {
  GenFixture f;
  const auto hosts = all_hosts(f.net);
  EXPECT_EQ(hosts.size(), 8u);
  schedule_dense_tm(f.net, hosts, hosts, Bytes{50'000}, TimePoint{});
  f.net.sim().run(TimePoint(us(1)));
  EXPECT_EQ(f.net.num_flows(), 8u * 7u);
}

}  // namespace
}  // namespace dcpim::workload
