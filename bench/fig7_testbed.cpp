// Figure 7: the paper's 32-server CloudLab testbed (10Gbps, ~8us RTT),
// reproduced in simulation per DESIGN.md's documented substitution:
// dcPIM vs DCTCP vs TCP at load 0.5, all-to-all.
//
// Paper result: for short flows dcPIM achieves 21-43x better mean slowdown
// and 34-76x better p99 than DCTCP/TCP, while long-flow FCT is
// 1.71-2.61x lower.
//
// Scenario: tests/campaign_specs/fig7.campaign. 10G links are 10x slower,
// hence the stretched horizons.
#include "bench_common.h"

using namespace dcpim;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 7: 32-server testbed (10G), dcPIM vs DCTCP vs TCP, load 0.5",
      "dcPIM short flows 21-43x better mean / 34-76x better p99; long "
      "flows 1.71-2.61x faster");

  const bench::SpecRun run = bench::run_spec("fig7");
  bench::print_bucket_table(run, 0, 1);
  bench::print_cell_lines(run);
  return 0;
}
