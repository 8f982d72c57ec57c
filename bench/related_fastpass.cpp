// Related-work comparison (§5): dcPIM vs a Fastpass-style centralized
// scheduler vs pHost on short-flow latency.
//
// Paper claims reproduced here: Fastpass gets good utilization from its
// global view but "since all short flows need to be scheduled before
// transmission, their average and higher tail latency is at least 2x away
// from optimal; dcPIM achieves much better short flow tail latency."
//
// Scenario: tests/campaign_specs/related_fastpass.campaign.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Related work (§5): dcPIM vs Fastpass-style centralized vs pHost",
      "Fastpass short-flow latency >= 2x optimal (arbiter round trip); "
      "dcPIM ~1x via the unscheduled bypass");

  const bench::SpecRun run = bench::run_spec("related_fastpass");
  std::printf("  %-10s %12s %12s %12s %12s %10s\n", "design", "short mean",
              "short p99", "all mean", "all p99", "done");
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const harness::ExperimentResult& r = run.results[i];
    std::printf("  %-10s %12.2f %12.2f %12.2f %12.2f %7zu/%zu\n",
                harness::to_string(run.cells[i].config.protocol),
                r.short_flows.mean, r.short_flows.p99, r.overall.mean,
                r.overall.p99, r.flows_done, r.flows_total);
    bench::maybe_print_audit(r);
    bench::maybe_print_faults(r);
  }
  bench::print_cell_lines(run);
  return 0;
}
