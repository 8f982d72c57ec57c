// Figure 4(c): dense traffic matrix — every one of the 144 senders has one
// long flow to every one of the 144 receivers (144x143 flows), violating
// the sparse-traffic-matrix assumption behind Theorem 1.
//
// Paper result: dcPIM still reaches ~93.5% utilization (well above the
// 32.9% theoretical floor) because realized matchings beat the expectation
// bound; HPCC collapses under constant PFC; NDP thrashes on retransmits;
// Homa Aeolus converges but takes >1000us.
//
// Scenario: tests/campaign_specs/fig4c.campaign. The horizons stretch with
// DCPIM_BENCH_SCALE; util_bin deliberately does not, matching the original
// hand-built scenario.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 4(c): dense 144x143 traffic matrix, utilization over time",
      "dcPIM ~93.5%% steady utilization; theoretical floor 32.9%%; "
      "baselines collapse or converge in >1000us");

  const bench::SpecRun run = bench::run_spec("fig4c");
  const Time horizon = run.cells[0].config.horizon.since_start();
  const Time bin = run.cells[0].config.util_bin;

  std::printf("  utilization per 50us bin (all 144 downlinks):\n");
  std::printf("  %-12s", "protocol");
  for (Time t{}; t < horizon; t += bin) std::printf(" %5.0f", to_us(t));
  std::printf("  (us)\n");

  for (std::size_t pi = 0; pi < run.cells.size(); ++pi) {
    const ExperimentResult& res = run.results[pi];
    std::printf("  %-12s", to_string(run.cells[pi].config.protocol));
    for (std::size_t i = 0; bin * i < horizon; ++i) {
      std::printf(" %5.2f",
                  i < res.util_series.size() ? res.util_series[i] : 0.0);
    }
    std::printf("   (steady mean %.3f, pfc=%llu, trims=%llu)\n",
                res.mean_util(4, res.util_series.size()),
                static_cast<unsigned long long>(res.pfc_pauses),
                static_cast<unsigned long long>(res.trims));
    bench::maybe_print_audit(res);
    bench::maybe_print_faults(res);
    std::fflush(stdout);
  }
  std::printf(
      "\n  theoretical floor (Theorem 1, N=144, deg=144, alpha=1.2, r=4): "
      "32.9%%\n");
  bench::print_cell_lines(run);
  return 0;
}
