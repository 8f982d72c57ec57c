// Determinism regression: two identical seeded leaf-spine dcPIM runs must
// produce byte-identical event traces. Catches accidental dependence on
// pointer values, unordered-container iteration order leaking into event
// scheduling, or uninitialized reads perturbing the RNG stream.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "core/dcpim_host.h"
#include "net/topology.h"
#include "stats/trace.h"
#include "workload/cdf.h"
#include "workload/generator.h"

namespace dcpim {
namespace {

/// Runs one seeded scenario to completion and returns a hash of the full
/// packet/event trace (deliveries included, so the interleaving of every
/// data packet contributes).
std::size_t traced_run_hash(std::uint64_t seed) {
  net::NetConfig ncfg;
  ncfg.seed = seed;
  auto network = std::make_unique<net::Network>(ncfg);

  stats::Tracer::Options topts;
  topts.record_deliveries = true;
  stats::Tracer tracer(*network, topts);

  core::DcpimConfig cfg;
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  net::Topology topo = net::Topology::leaf_spine(
      *network, p, core::dcpim_host_factory(cfg));

  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::workload_by_name("imc10");
  pc.load = 0.6;
  pc.stop = TimePoint(us(150));
  workload::PoissonGenerator gen(*network, topo.host_rate(), pc);
  gen.start();

  network->sim().run(TimePoint(ms(5)));

  std::ostringstream csv;
  tracer.dump_csv(csv);
  EXPECT_GT(tracer.events().size(), 10u);
  return std::hash<std::string>{}(csv.str());
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalTraces) {
  const std::size_t first = traced_run_hash(7);
  const std::size_t second = traced_run_hash(7);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the hash actually reflects the run: a different seed
  // reshuffles arrivals, so the traces should differ.
  EXPECT_NE(traced_run_hash(7), traced_run_hash(8));
}

}  // namespace
}  // namespace dcpim
