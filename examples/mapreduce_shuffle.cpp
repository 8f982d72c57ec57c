// Domain scenario: a MapReduce shuffle — 16 mappers stream large partitions
// to 16 reducers in another rack while a latency-critical RPC service keeps
// sending tiny queries into the same receivers. dcPIM's matching keeps the
// shuffle at high utilization while the RPCs ride the short-flow fast path
// at near-hardware latency (the paper's core claim).
//
// Run: ./build/examples/mapreduce_shuffle
#include <cstdio>
#include <vector>

#include "core/dcpim_host.h"
#include "net/topology.h"
#include "stats/metrics.h"
#include "workload/generator.h"

using namespace dcpim;

int main() {
  net::NetConfig net_cfg;
  net_cfg.seed = 3;
  net::Network network(net_cfg);

  const core::DcpimConfig dcpim;
  net::LeafSpineParams params;  // default 144-host fabric
  auto topo = net::Topology::leaf_spine(network, params,
                                        core::dcpim_host_factory(dcpim));

  stats::FlowStats stats(network, topo);

  // The shuffle: every mapper (rack 0) sends a 2MB partition to every
  // reducer (rack 1) — a dense 16x16 block of long flows.
  std::vector<int> mappers, reducers;
  for (int h = 0; h < 16; ++h) mappers.push_back(h);
  for (int h = 16; h < 32; ++h) reducers.push_back(h);
  workload::schedule_dense_tm(network, mappers, reducers, kMB * 2, TimePoint{});

  // The RPC service: hosts in other racks send 4KB queries to the reducers
  // throughout the shuffle.
  std::vector<int> rpc_clients;
  for (int h = 32; h < 144; ++h) rpc_clients.push_back(h);
  workload::PoissonPatternConfig rpc;
  static const auto rpc_cdf = workload::fixed_size_cdf(kKB * 4);
  rpc.cdf = &rpc_cdf;
  rpc.load = 0.05;  // light but latency-critical
  rpc.senders = rpc_clients;
  rpc.receivers = reducers;
  rpc.stop = TimePoint(ms(1));
  workload::PoissonGenerator rpc_gen(network, topo.host_rate(), rpc);
  rpc_gen.start();

  stats::UtilizationSeries util(network, us(100));
  network.sim().run(TimePoint(ms(6)));

  // Shuffle health: bytes delivered to the reducers over the first ms.
  const double reducer_capacity = 16.0 * 100e9;
  std::printf("shuffle utilization (16 reducer downlinks, 100us bins):\n  ");
  for (std::size_t i = 0; i < 10; ++i) {
    std::printf("%5.2f", util.utilization(i, reducer_capacity));
  }
  std::printf("\n");

  // RPC latency: the short-flow fast path must be unaffected.
  const auto rpcs = stats.summary_for_sizes(Bytes{}, kKB * 8);
  const auto shuffle = stats.summary_for_sizes(kMB, Bytes{});
  std::printf("\nRPC (4KB) slowdown:    mean %.2f  p99 %.2f  (n=%zu)\n",
              rpcs.mean, rpcs.p99, rpcs.count);
  std::printf("shuffle (2MB) slowdown: mean %.2f  p99 %.2f  (n=%zu)\n",
              shuffle.mean, shuffle.p99, shuffle.count);
  std::printf("completed %llu/%zu flows, %llu drops\n",
              static_cast<unsigned long long>(network.completed_flows),
              network.num_flows(),
              static_cast<unsigned long long>(network.total_drops()));
  std::printf("\nTake-away: the 256-flow shuffle saturates the reducers "
              "through matched channels while 4KB RPCs keep ~1x slowdown — "
              "the tradeoff Figure 3 quantifies.\n");
  return 0;
}
