// Chaos property suite: randomized FaultPlans against dcPIM and every
// baseline, auditor on. The properties under test are the ones DESIGN.md
// §11 promises for any fault schedule whose windows all close:
//   * eventual completion — every flow finishes once faults clear
//     (recovery.flows_stalled == 0, flows_done == flows_total), and
//   * byte conservation — the flow-ledger audit probe balances injected
//     vs. delivered+dropped+queued bytes at every sweep, fault drops
//     attributed separately (audit stays clean).
// The FixedSeed smoke cases are the cheap deterministic subset the ASan and
// TSan CI lanes run explicitly; the Randomized sweep is the full >= 100
// seeded-case property run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "sim/fault/fault_plan.h"

namespace dcpim {
namespace {

namespace fault = sim::fault;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Protocol;

const Protocol kAllProtocols[] = {
    Protocol::Dcpim, Protocol::Phost,  Protocol::Homa, Protocol::HomaAeolus,
    Protocol::Ndp,   Protocol::Hpcc,   Protocol::Dctcp, Protocol::Tcp};

/// Small topology, light load, generous drain horizon: every protocol must
/// be able to finish once the last fault window closes (~260us in).
ExperimentConfig chaos_config(Protocol p, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "imc10";
  cfg.load = 0.35;
  cfg.seed = seed;
  cfg.gen_stop = TimePoint(us(80));
  cfg.measure_start = TimePoint(us(10));
  cfg.measure_end = TimePoint(us(80));
  cfg.horizon = TimePoint(ms(200));
  cfg.audit = true;
  cfg.fault_seed = seed;
  return cfg;
}

/// A chaos case: a random plan serialized through the `--faults` grammar so
/// every run also exercises the parser round-trip.
ExperimentConfig chaos_case(Protocol p, std::uint64_t seed) {
  ExperimentConfig cfg = chaos_config(p, seed);
  const fault::RandomFaultOptions opts;
  cfg.faults = fault::to_spec(fault::random_fault_plan(
      opts, seed * 1000003ull + static_cast<std::uint64_t>(p)));
  return cfg;
}

void expect_recovered(const ExperimentConfig& cfg,
                      const ExperimentResult& res) {
  SCOPED_TRACE(std::string(harness::to_string(cfg.protocol)) + " seed=" +
               std::to_string(cfg.seed) + " faults='" + cfg.faults + "'");
  EXPECT_TRUE(res.recovery.enabled);
  EXPECT_GT(res.flows_total, 0u);
  // Eventual completion: nothing the faults caught may stay stalled.
  EXPECT_EQ(res.flows_done, res.flows_total);
  EXPECT_EQ(res.recovery.flows_stalled, 0u);
  // Byte conservation (and every other standing invariant): auditor clean.
  // The standard set includes packet-pool-hygiene (the data-packet ledger),
  // so every chaos case also proves fault-killed packets are freed.
  ASSERT_TRUE(res.audit.enabled);
  EXPECT_TRUE(res.audit.clean()) << harness::format_audit_summary(res.audit);
  EXPECT_GT(res.pool_acquired, 0u);
}

// ---- fixed-seed smoke (the CI sanitizer/TSan target) ------------------------

TEST(ChaosPropertyTest, FixedSeedSmoke) {
  for (Protocol p : {Protocol::Dcpim, Protocol::Ndp, Protocol::Homa}) {
    const ExperimentConfig cfg = chaos_case(p, /*seed=*/2026);
    expect_recovered(cfg, harness::run_experiment(cfg));
  }
}

TEST(ChaosPropertyTest, FixedSeedSmokeIsDeterministic) {
  const ExperimentConfig cfg = chaos_case(Protocol::Dcpim, /*seed=*/2026);
  EXPECT_EQ(harness::result_fingerprint(harness::run_experiment(cfg)),
            harness::result_fingerprint(harness::run_experiment(cfg)));
}

TEST(ChaosPropertyTest, FixedSeedGraySrlgSmoke) {
  // Gray-failure classes under an explicit plan (no RandomBurst draw): a
  // silent loss window, a correlated shared-risk outage of both spines,
  // and a brownout — every protocol must drain clean after all three.
  // Picked up by the CI sanitizer lanes' FixedSeed* filter.
  for (Protocol p : {Protocol::Dcpim, Protocol::Ndp, Protocol::Homa}) {
    ExperimentConfig cfg = chaos_config(p, /*seed=*/2026);
    cfg.faults =
        "gray:leaf*:0.02@20us:120us;srlg:power=spine0+spine1@60us:40us;"
        "degrade:leaf*:0.3@30us:100us";
    const ExperimentResult res = harness::run_experiment(cfg);
    expect_recovered(cfg, res);
    SCOPED_TRACE(harness::to_string(p));
    EXPECT_EQ(res.recovery.degrade_active, us(100));
    ASSERT_EQ(res.recovery.srlg.size(), 1u);
    EXPECT_EQ(res.recovery.srlg[0].name, "power");
    EXPECT_GT(res.recovery.srlg[0].member_ports, 0u);
    EXPECT_EQ(res.recovery.srlg[0].flows_stalled, 0u);
  }
}

// ---- the full randomized property run ---------------------------------------

TEST(ChaosPropertyTest, RandomizedPlansAcrossAllProtocols) {
  // >= 100 seeded FaultPlan cases: 8 protocols x 13 seeds. Runs as one
  // parallel sweep (itself under the determinism contract) for wall-clock.
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 13; ++seed) {
    for (Protocol p : kAllProtocols) {
      configs.push_back(chaos_case(p, seed));
    }
  }
  ASSERT_GE(configs.size(), 100u);
  harness::SweepOptions opts;
  opts.jobs = 8;
  const auto results = harness::run_sweep(configs, opts);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_recovered(configs[i], results[i]);
  }
}

}  // namespace
}  // namespace dcpim
