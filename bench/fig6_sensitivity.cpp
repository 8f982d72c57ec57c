// Figure 6: dcPIM sensitivity to its three parameters — matching rounds r,
// channels k, and slack beta — at load 0.54 (the paper's common load for
// all parameter combinations).
//
// Paper result: r=1 -> r=2 yields the biggest jump (18-24% higher
// sustainable load; the matching algorithm kicks in), more rounds give
// diminishing returns at slightly higher latency; 2-4 channels are the
// sweet spot; beta has no impact beyond 1.1.
//
// Scenarios: tests/campaign_specs/fig6.campaign (the one-at-a-time r/k/beta
// grid) and fig6_ablations.campaign (DESIGN.md §5).
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

namespace {

void print_row(const char* label, const ExperimentResult& res) {
  std::printf("  %-14s carried=%6.3f  mean=%6.2f  p99=%7.2f  short p99=%6.2f\n",
              label, res.load_carried_ratio, res.overall.mean,
              res.overall.p99, res.short_flows.p99);
  bench::maybe_print_audit(res);
  bench::maybe_print_faults(res);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 6: dcPIM sensitivity to r, k, beta (load 0.54)",
      "r=1->2 biggest gain (18-24% load); k=2-4 sweet spot; beta "
      "irrelevant beyond 1.1");

  const bench::SpecRun grid = bench::run_spec("fig6");
  const bench::SpecRun ablations = bench::run_spec("fig6_ablations");

  // One section per knob: the grid cells whose other two knobs sit at the
  // dcPIM defaults, in expansion order, so the default cell is a row of
  // every section.
  const core::DcpimConfig defaults;
  const char* const sections[] = {"-- matching rounds r (k=4, beta=1.3):",
                                  "-- channels k (r=4, beta=1.3):",
                                  "-- slack beta (r=4, k=4):"};
  for (int knob = 0; knob < 3; ++knob) {
    std::printf("%s\n", sections[knob]);
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
      const core::DcpimConfig& c = grid.cells[i].config.dcpim;
      const bool at_default[] = {c.rounds == defaults.rounds,
                                 c.channels == defaults.channels,
                                 c.beta == defaults.beta};
      if (!at_default[(knob + 1) % 3] || !at_default[(knob + 2) % 3]) {
        continue;
      }
      char label[32];
      if (knob == 0) std::snprintf(label, sizeof(label), "r=%d", c.rounds);
      if (knob == 1) std::snprintf(label, sizeof(label), "k=%d", c.channels);
      if (knob == 2) std::snprintf(label, sizeof(label), "beta=%.1f", c.beta);
      print_row(label, grid.results[i]);
    }
  }

  std::printf("-- ablations (DESIGN.md §5):\n");
  for (std::size_t i = 0; i < ablations.cells.size(); ++i) {
    const core::DcpimConfig& c = ablations.cells[i].config.dcpim;
    char label[32];
    if (!c.fct_optimizing_first_round) {
      std::snprintf(label, sizeof(label), "no-FCT-round");
    } else if (!c.pipeline_phases) {
      std::snprintf(label, sizeof(label), "sequential");
    } else {
      std::snprintf(label, sizeof(label), "jitter=%.0fns",
                    to_ns(c.clock_jitter));
    }
    print_row(label, ablations.results[i]);
  }
  bench::print_cell_lines(grid);
  bench::print_cell_lines(ablations);
  return 0;
}
