// Figure 3(b): mean slowdown across ALL flows at load 0.6 (the highest load
// every protocol sustains), for the three Table-1 workloads.
// Paper result: dcPIM and Homa Aeolus achieve the best overall means;
// NDP and HPCC trail (HPCC good on short flows, poor on long).
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
    const Protocol p = run.cells[pi * workloads.size()].config.protocol;
    std::printf("  %-12s", to_string(p));
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      const std::size_t idx = pi * workloads.size() + wi;
      const ExperimentResult& res = run.results[idx];
      bench::maybe_csv("fig3b", p, workloads[wi], run.cells[idx].config.load,
                       res);
      std::printf(" %12.2f", res.overall.mean);
      bench::maybe_print_audit(res);
      bench::maybe_print_faults(res);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  bench::print_cell_lines(run);
  return 0;
}
