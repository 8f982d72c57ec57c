// Figure 5(a)-(b): 2:1 oversubscribed leaf-spine (spine links halved) at
// load 0.5 — the highest load the baselines survive there. Trends must
// match Figure 3: dcPIM's token clocking absorbs core congestion.
//
// Scenario: tests/campaign_specs/fig5ab.campaign.
#include "bench_common.h"

using namespace dcpim;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 5(a,b): 2:1 oversubscribed topology, load 0.5",
      "same trends as Fig 3: dcPIM near-optimal short-flow latency, high "
      "utilization via token clocking; baselines can't sustain >0.5");

  const bench::SpecRun run = bench::run_spec("fig5ab");
  bench::print_per_workload(run, bench::print_slowdown_table);
  bench::print_cell_lines(run);
  return 0;
}
