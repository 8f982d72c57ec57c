// Unit tests: metrics (percentiles, slowdown windows, buckets, utilization).
#include <gtest/gtest.h>

#include "net/host.h"
#include "net/topology.h"
#include "stats/metrics.h"

namespace dcpim::stats {
namespace {

class BlastHost : public net::Host {
 public:
  using net::Host::Host;
  void on_flow_arrival(net::Flow& flow) override {
    const std::uint32_t n = flow.seq_count();
    for (std::uint32_t seq = 0; seq < n; ++seq) {
      send(make_data_packet(flow, {.seq = seq, .priority = 2}));
    }
  }

 protected:
  void on_packet(net::PacketPtr p) override { accept_data(*p); }
};

struct Fixture {
  Fixture() : net(net::NetConfig{}) {
    net::LeafSpineParams p;
    p.racks = 2;
    p.hosts_per_rack = 2;
    p.spines = 2;
    topo = net::Topology::leaf_spine(
        net, p, [](net::Network& n, int id) {
          return static_cast<net::Host*>(n.add_device<BlastHost>(id));
        });
  }
  net::Network net;
  net::Topology topo;
};

TEST(PercentileTest, KnownValues) {
  EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);  // unsorted input ok
}

TEST(FlowStatsTest, SlowdownIsAtLeastOneForLoneFlow) {
  Fixture f;
  FlowStats stats(f.net, f.topo);
  f.net.create_flow(0, 3, Bytes{100'000}, TimePoint{});
  f.net.sim().run();
  ASSERT_EQ(stats.records().size(), 1u);
  EXPECT_GE(stats.records()[0].slowdown, 1.0);
  EXPECT_LT(stats.records()[0].slowdown, 1.1);
}

TEST(FlowStatsTest, WindowFiltersByStartTime) {
  Fixture f;
  FlowStats stats(f.net, f.topo);
  stats.set_window(TimePoint(us(10)), TimePoint(us(20)));
  f.net.create_flow(0, 3, Bytes{10'000}, TimePoint(us(5)));    // before window
  f.net.create_flow(0, 3, Bytes{10'000}, TimePoint(us(15)));   // inside
  f.net.create_flow(1, 2, Bytes{10'000}, TimePoint(us(25)));   // after
  f.net.sim().run();
  EXPECT_EQ(f.net.completed_flows, 3u);
  ASSERT_EQ(stats.records().size(), 1u);
  EXPECT_EQ(stats.records()[0].start, TimePoint(us(15)));
}

TEST(FlowStatsTest, BucketsPartitionBySize) {
  Fixture f;
  FlowStats stats(f.net, f.topo);
  f.net.create_flow(0, 3, Bytes{1'000}, TimePoint{});
  f.net.create_flow(0, 2, Bytes{50'000}, TimePoint(us(1)));
  // Keep the largest flow under the 500KB NIC buffer: the blast host has no
  // retransmission, so overflow would simply lose the tail.
  f.net.create_flow(1, 3, Bytes{300'000}, TimePoint(us(2)));
  f.net.sim().run();
  const auto buckets = stats.by_buckets({Bytes{}, Bytes{10'000}, Bytes{100'000}});
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].slowdown.count, 1u);
  EXPECT_EQ(buckets[1].slowdown.count, 1u);
  EXPECT_EQ(buckets[2].slowdown.count, 1u);
  EXPECT_EQ(buckets[2].hi, Bytes{});  // open-ended tail bucket
}

TEST(FlowStatsTest, SummaryAggregates) {
  Fixture f;
  FlowStats stats(f.net, f.topo);
  for (int i = 0; i < 10; ++i) {
    f.net.create_flow(0, 3, Bytes{20'000}, TimePoint(us(i * 10)));
  }
  f.net.sim().run();
  const auto sum = stats.summary();
  EXPECT_EQ(sum.count, 10u);
  EXPECT_GE(sum.p99, sum.p50);
  EXPECT_GE(sum.max, sum.p99);
  EXPECT_GT(sum.mean, 0.99);
}

TEST(UtilizationSeriesTest, BinsDeliveredBytes) {
  Fixture f;
  UtilizationSeries series(f.net, us(10));
  f.net.create_flow(0, 3, Bytes{125'000}, TimePoint{});  // 10 us at 100G
  f.net.sim().run();
  Bytes total{};
  for (std::size_t i = 0; i < series.num_bins(); ++i) {
    total += series.bytes_in_bin(i);
  }
  EXPECT_EQ(total, Bytes{125'000});
  // Near-line-rate while transferring (delivery straddles bins 0-2 because
  // of path latency): aggregate utilization over those bins vs 100G.
  const double agg = series.mean_utilization(0, 2, 100e9);
  EXPECT_GT(agg, 0.4);
  EXPECT_EQ(series.bytes_in_bin(series.num_bins() + 5), Bytes{});
}

TEST(UtilizationSeriesTest, MeanUtilization) {
  Fixture f;
  UtilizationSeries series(f.net, us(10));
  f.net.create_flow(0, 3, Bytes{1'250'000}, TimePoint{});  // 100 us at 100G
  f.net.sim().run();
  const double mean = series.mean_utilization(0, series.num_bins(), 100e9);
  EXPECT_GT(mean, 0.6);
  EXPECT_LE(mean, 1.01);
}

TEST(GoodputMeterTest, RatioReachesOneWhenDrained) {
  Fixture f;
  GoodputMeter meter(f.net);
  f.net.create_flow(0, 3, Bytes{200'000}, TimePoint{});
  f.net.create_flow(1, 2, Bytes{300'000}, TimePoint(us(1)));
  f.net.sim().run();
  EXPECT_EQ(meter.offered(), Bytes{500'000});
  EXPECT_EQ(meter.delivered(), Bytes{500'000});
  EXPECT_DOUBLE_EQ(meter.ratio(), 1.0);
}

TEST(GoodputMeterTest, WindowRestrictsOfferedAndDelivered) {
  Fixture f;
  GoodputMeter meter(f.net);
  meter.set_window(TimePoint{}, TimePoint(us(1)));
  f.net.create_flow(0, 3, Bytes{200'000}, TimePoint{});        // offered inside window
  f.net.create_flow(1, 2, Bytes{300'000}, TimePoint(us(500)));  // outside
  f.net.sim().run();
  EXPECT_EQ(meter.offered(), Bytes{200'000});
  // Delivery of the first flow extends past 1 us -> partial.
  EXPECT_LT(meter.delivered(), Bytes{200'000});
}

}  // namespace
}  // namespace dcpim::stats
