// Figure 4(b): dcPIM's worst case — every flow exactly BDP+1 bytes (just
// over the short-flow threshold, so each flow must wait to be matched yet
// barely fills its data phase), all-to-all at load 0.6.
//
// Paper result: HPCC achieves better mean and slightly better tail latency
// than dcPIM on this (unrealistic) workload; NDP and Homa Aeolus remain
// worse than both.
//
// Scenario: tests/campaign_specs/fig4b.campaign.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 4(b): worst case, all flows of size BDP+1, load 0.6",
      "HPCC beats dcPIM on mean and slightly on tail here; NDP/HomaAeolus "
      "worse than both (proactive drops)");

  const bench::SpecRun run = bench::run_spec("fig4b");

  std::printf("  %-12s %8s %8s %8s\n", "protocol", "mean", "p99", "carried");
  for (std::size_t pi = 0; pi < run.cells.size(); ++pi) {
    const ExperimentResult& res = run.results[pi];
    std::printf("  %-12s %8.2f %8.2f %8.3f\n",
                to_string(run.cells[pi].config.protocol), res.overall.mean,
                res.overall.p99, res.load_carried_ratio);
    bench::maybe_print_audit(res);
    bench::maybe_print_faults(res);
    std::fflush(stdout);
  }
  bench::print_cell_lines(run);
  return 0;
}
