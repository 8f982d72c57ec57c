// Incast-degree sweep (§4.1 "additional workloads ... a mix of all-to-all
// traffic with bursty incast traffic [28] consistently exhibits similar
// performance"): short-flow incasts of growing fan-in on top of background
// all-to-all load, per protocol.
//
// The signature to reproduce: dcPIM's incast flows complete with bounded
// tail latency at every degree (losses are rescued through matching), while
// the baselines' completion times blow up or stay loss-bound.
//
// Scenario: tests/campaign_specs/incast_sweep.campaign. The spec stretches
// measure_end with DCPIM_BENCH_SCALE along with the other horizons —
// identical to the historical hand-built scenario at the default scale of
// 1.0, which is what the test suite pins.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Incast-degree sweep: 64KB incast flows into one receiver",
      "every protocol must complete all flows with bounded tails; dcPIM "
      "pays admission-controlled rescue latency (§3.2) at high degree, "
      "trading pure-incast retransmission speed for zero congestion "
      "collapse");

  const bench::SpecRun run = bench::run_spec("incast_sweep");
  const std::vector<std::string>& fanins = run.spec.axes[1].values;
  const std::size_t n_protocols = run.spec.axes[0].values.size();

  std::printf("  99th-pct slowdown of the incast flows per fan-in:\n");
  std::printf("  %-12s", "protocol");
  for (const std::string& f : fanins) std::printf(" %7d", std::stoi(f));
  std::printf("\n");

  for (std::size_t pi = 0; pi < n_protocols; ++pi) {
    const Protocol p = run.cells[pi * fanins.size()].config.protocol;
    std::printf("  %-12s", to_string(p));
    for (std::size_t fi = 0; fi < fanins.size(); ++fi) {
      const ExperimentResult& res = run.results[pi * fanins.size() + fi];
      if (res.flows_done < res.flows_total) {
        std::printf(" %7s", "stuck");
      } else {
        std::printf(" %7.1f", res.overall.p99);
      }
      bench::maybe_print_audit(res);
      bench::maybe_print_faults(res);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n  (all incast flows start at t=0; slowdown vs the unloaded "
              "oracle, so fan-in N costs at least ~N/2 on average)\n");
  bench::print_cell_lines(run);
  return 0;
}
