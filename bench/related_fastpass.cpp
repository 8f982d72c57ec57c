// Related-work comparison (§5): dcPIM vs a Fastpass-style centralized
// scheduler vs pHost on short-flow latency and an incast.
//
// Paper claims reproduced here: Fastpass gets good utilization from its
// global view but "since all short flows need to be scheduled before
// transmission, their average and higher tail latency is at least 2x away
// from optimal; dcPIM achieves much better short flow tail latency."
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "harness/audit_probes.h"
#include "sim/audit.h"
#include "core/dcpim_host.h"
#include "net/topology.h"
#include "proto/fastpass.h"
#include "proto/phost.h"
#include "stats/metrics.h"
#include "workload/generator.h"

using namespace dcpim;

namespace {

struct RunResult {
  stats::SlowdownSummary short_flows;
  stats::SlowdownSummary overall;
  std::size_t done = 0, total = 0;
};

/// `make_factory` runs once the network exists (the Fastpass arbiter binds
/// to it); whatever the factory refers to must outlive this call.
template <typename MakeFactory>
RunResult run_with(MakeFactory make_factory) {
  net::NetConfig ncfg;
  ncfg.seed = 11;
  auto network = std::make_unique<net::Network>(ncfg);
  net::LeafSpineParams params;
  params.racks = 4;
  params.hosts_per_rack = 8;
  params.spines = 2;
  const net::Topology topo =
      net::Topology::leaf_spine(*network, params, make_factory(*network));

  std::unique_ptr<sim::Auditor> auditor;
  if (bench::audit_flag()) {
    auditor = std::make_unique<sim::Auditor>();
    harness::install_standard_probes(*auditor, *network);
    auditor->attach(network->sim());
  }

  stats::FlowStats stats(*network, topo);
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::imc10();
  pc.load = 0.5;
  pc.stop = TimePoint(bench::scaled(us(400)));
  workload::PoissonGenerator gen(*network, topo.host_rate(), pc);
  gen.start();
  network->sim().run(TimePoint(bench::scaled(ms(10))));

  if (auditor) {
    auditor->sweep(network->sim().now());
    std::printf("    %s\n",
                harness::format_audit_summary(auditor->summary()).c_str());
  }

  RunResult r;
  r.short_flows = stats.short_flows(network->bdp());
  r.overall = stats.summary();
  r.done = network->completed_flows;
  r.total = network->num_flows();
  return r;
}

void print_row(const char* design, const RunResult& r) {
  std::printf("  %-10s %12.2f %12.2f %12.2f %12.2f %7zu/%zu\n", design,
              r.short_flows.mean, r.short_flows.p99, r.overall.mean,
              r.overall.p99, r.done, r.total);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "Related work (§5): dcPIM vs Fastpass-style centralized vs pHost",
      "Fastpass short-flow latency >= 2x optimal (arbiter round trip); "
      "dcPIM ~1x via the unscheduled bypass");

  std::printf("  %-10s %12s %12s %12s %12s %10s\n", "design", "short mean",
              "short p99", "all mean", "all p99", "done");

  print_row("dcPIM", run_with([](net::Network&) {
              return core::dcpim_host_factory(core::DcpimConfig{});
            }));

  std::unique_ptr<proto::FastpassArbiter> arbiter;
  print_row("Fastpass", run_with([&](net::Network& net) {
              arbiter = std::make_unique<proto::FastpassArbiter>(net);
              return proto::fastpass_host_factory(*arbiter);
            }));

  print_row("pHost", run_with([](net::Network&) {
              return proto::phost_host_factory();
            }));
  return 0;
}
