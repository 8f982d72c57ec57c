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
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 7: 32-server testbed (10G), dcPIM vs DCTCP vs TCP, load 0.5",
      "dcPIM short flows 21-43x better mean / 34-76x better p99; long "
      "flows 1.71-2.61x faster");

  const bench::SpecRun run = bench::run_spec("fig7");

  bool header_done = false;
  for (std::size_t pi = 0; pi < run.cells.size(); ++pi) {
    const Protocol p = run.cells[pi].config.protocol;
    const ExperimentResult& res = run.results[pi];
    if (!header_done) {
      std::printf("  %-12s %6s", "protocol", "");
      for (const auto& b : res.buckets) {
        std::printf(" %13s", bench::bucket_label(b.lo, b.hi).c_str());
      }
      std::printf("\n");
      header_done = true;
    }
    std::printf("  %-12s %6s", to_string(p), "mean");
    for (const auto& b : res.buckets) {
      if (b.slowdown.count == 0) {
        std::printf(" %13s", "-");
      } else {
        std::printf(" %13.2f", b.slowdown.mean);
      }
    }
    std::printf("\n  %-12s %6s", "", "p99");
    for (const auto& b : res.buckets) {
      if (b.slowdown.count == 0) {
        std::printf(" %13s", "-");
      } else {
        std::printf(" %13.2f", b.slowdown.p99);
      }
    }
    std::printf("\n");
    bench::maybe_print_audit(res);
    bench::maybe_print_faults(res);
    std::fflush(stdout);
  }
  bench::print_cell_lines(run);
  return 0;
}
