// Figure 5(c)-(d): three-tier FatTree at load 0.6. The paper uses 1024
// hosts (k=16); the committed spec runs k=8 (128 hosts) for runtime, and
// setting its fat_tree_k to 16 gives paper scale. Trends must match Fig 3:
// pipelining hides the larger RTTs even though dcPIM sizes its stages on
// the longest cRTT.
//
// Scenario: tests/campaign_specs/fig5cd.campaign.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 5(c,d): FatTree, load 0.6",
      "same trends as Fig 3; matching-phase length set by the longest "
      "cRTT, hidden by pipelining");

  const bench::SpecRun run = bench::run_spec("fig5cd");
  const int k = run.cells[0].config.fat_tree_k;
  std::printf("  (FatTree k=%d -> %d hosts; paper: k=16 -> 1024; set "
              "fat_tree_k = 16 in fig5cd.campaign for paper scale)\n\n",
              k, k * k * k / 4);
  bench::print_per_workload(run, bench::print_slowdown_table);
  bench::print_cell_lines(run);
  return 0;
}
