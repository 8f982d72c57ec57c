// Figure 4(a): microscopic view — 16 senders in one rack shuffle to 16
// receivers in another, plus a 50:1 incast of 128KB flows into one of the
// receivers every 100us for the first 600us. Reports the receiver-side
// utilization time series.
//
// Paper result: HPCC stumbles (frequent PFC triggering); Homa Aeolus and
// NDP take 300-600us to converge after bursts; dcPIM converges within tens
// of microseconds and holds high utilization (zero during the very first
// matching phase, footnote 3).
//
// Scenario: tests/campaign_specs/fig4a.campaign.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Figure 4(a): bursty microbenchmark (shuffle + periodic 50:1 incast)",
      "dcPIM holds high utilization through bursts; HPCC collapses via "
      "PFC; HomaAeolus/NDP converge slowly (300-600us)");

  const bench::SpecRun run = bench::run_spec("fig4a");
  const Time horizon = run.cells[0].config.horizon.since_start();
  const Time bin = run.cells[0].config.util_bin;

  std::printf("  utilization of the 16 receiver downlinks per 50us bin:\n");
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
    std::printf("   (mean %.2f, pfc=%llu, drops=%llu)\n",
                res.mean_util(2, res.util_series.size()),
                static_cast<unsigned long long>(res.pfc_pauses),
                static_cast<unsigned long long>(res.drops));
    bench::maybe_print_audit(res);
    bench::maybe_print_faults(res);
    std::fflush(stdout);
  }
  bench::print_cell_lines(run);
  return 0;
}
