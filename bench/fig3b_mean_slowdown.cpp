// Figures 3(b)-(e) at load 0.6 (the highest load every protocol sustains),
// for the three Table-1 workloads, from one run of the 12-cell grid.
//
// Figure 3(b), mean slowdown across ALL flows. Paper result: dcPIM and Homa
// Aeolus achieve the best overall means; NDP and HPCC trail (HPCC good on
// short flows, poor on long).
//
// Figures 3(c)-(e), mean and 99th-percentile slowdown by flow size per
// workload. Paper result (short flows, across workloads): dcPIM mean
// 1.03-1.04 and p99 1.09-1.16; Homa Aeolus mean 2.5-2.7 / p99 3-6.1; NDP
// mean 2.5-4.1 / p99 12.5-22.3; HPCC mean 1.1-1.9 / p99 2-5.8. dcPIM trades
// medium-flow latency for that (matching wait), staying strong on long
// flows.
//
// Scenario: tests/campaign_specs/fig3b.campaign.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 3(b): mean slowdown across all flows, load 0.6",
      "dcPIM/HomaAeolus lowest overall mean; NDP worst; slowdown >= 1");

  const bench::SpecRun run = bench::run_spec("fig3b");
  const std::vector<std::string>& workloads = run.spec.axes[1].values;
  const std::size_t n_protocols = run.spec.axes[0].values.size();

  std::printf("  %-12s", "protocol");
  for (const auto& w : workloads) std::printf(" %12s", w.c_str());
  std::printf("\n");

  for (std::size_t pi = 0; pi < n_protocols; ++pi) {
    std::printf("  %-12s",
                to_string(run.cells[pi * workloads.size()].config.protocol));
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      std::printf(" %12.2f",
                  run.results[pi * workloads.size() + wi].overall.mean);
    }
    std::printf("\n");
  }

  // The audit and recovery blocks print under the per-size rows.
  bench::print_header(
      "Figures 3(c)-(e): slowdown by flow size, load 0.6",
      "short flows: dcPIM mean 1.03-1.04 / p99 1.09-1.16; HomaAeolus "
      "2.5-2.7 / 3-6.1; NDP 2.5-4.1 / 12.5-22.3; HPCC 1.1-1.9 / 2-5.8");
  bench::print_per_workload(run, bench::print_bucket_table);
  bench::print_cell_lines(run);
  return 0;
}
