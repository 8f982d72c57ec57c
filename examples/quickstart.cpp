// Quickstart: build a 144-host leaf-spine datacenter running dcPIM, offer
// an all-to-all Web Search workload at 60% load, and report flow slowdowns
// and network utilization.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart
#include <cstdio>

#include "core/dcpim_host.h"
#include "net/topology.h"
#include "stats/metrics.h"
#include "workload/generator.h"

using namespace dcpim;

int main() {
  // 1. A network: the composition root owning the event queue and devices.
  net::NetConfig net_cfg;
  net_cfg.seed = 42;
  net::Network network(net_cfg);

  // 2. dcPIM protocol parameters (§3.6 of the paper). Everything else is
  //    derived from the fabric: the topology stores its BDP and RTTs on the
  //    network, and every host reads them there.
  core::DcpimConfig dcpim;
  dcpim.rounds = 4;    // 1 FCT-optimizing + 3 utilization-optimizing
  dcpim.channels = 4;  // k = r is the paper's sweet spot
  dcpim.beta = 1.3;

  // 3. The Table-1 topology: 9 racks x 16 hosts, 4 spines, 100G/400G.
  net::LeafSpineParams topo_params;
  auto topology = net::Topology::leaf_spine(network, topo_params,
                                            core::dcpim_host_factory(dcpim));
  std::printf("topology: %d hosts, data RTT %.2f us, control RTT %.2f us, "
              "BDP %lld B, dcPIM epoch %.2f us\n",
              topology.num_hosts(), to_us(network.max_data_rtt()),
              to_us(network.max_control_rtt()),
              static_cast<long long>(network.bdp().raw()),
              to_us(dcpim.epoch_length(network.max_control_rtt())));

  // 4. Metrics: slowdown (FCT / unloaded-optimal FCT) and utilization.
  stats::FlowStats stats(network, topology);
  stats.set_window(TimePoint(us(100)), TimePoint(us(600)));

  // 5. Workload: Poisson all-to-all at 0.6 load, Web Search flow sizes.
  workload::PoissonPatternConfig pattern;
  pattern.cdf = &workload::web_search();
  pattern.load = 0.6;
  pattern.stop = TimePoint(us(600));
  workload::PoissonGenerator generator(network, topology.host_rate(),
                                       pattern);
  generator.start();

  // 6. Run: generate for 600 us, then let the tail drain.
  network.sim().run(TimePoint(ms(5)));

  const auto all = stats.summary();
  const auto short_flows = stats.short_flows(network.bdp());
  std::printf("\nflows: %zu offered, %llu completed\n", network.num_flows(),
              static_cast<unsigned long long>(network.completed_flows));
  std::printf("slowdown (all):   mean %.2f  p99 %.2f\n", all.mean, all.p99);
  std::printf("slowdown (short): mean %.2f  p99 %.2f   <- the paper's "
              "headline: ~1.0x, i.e. near hardware latency\n",
              short_flows.mean, short_flows.p99);
  std::printf("drops: %llu (dcPIM admits long-flow packets via tokens, so "
              "buffers never overflow)\n",
              static_cast<unsigned long long>(network.total_drops()));
  return 0;
}
