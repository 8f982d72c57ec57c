// The determinism-proving test layer for parallel sweeps (harness/sweep.h).
//
// Headline guarantee under test: a parallel sweep is BIT-IDENTICAL to the
// serial one. Equality is asserted on harness::result_fingerprint(), which
// serializes every field of an ExperimentResult (slowdown summaries, size
// buckets, the full utilization series, audit counters) with hex-float
// doubles — equal strings mean equal bits.
//
// Also here: the regression tests for per-experiment isolation — seed
// sensitivity (a sweep must not silently ignore ExperimentConfig::seed),
// repeated-run stability (run_experiment twice in one process must not leak
// state between calls), and the fixed_size/empirical-workload interleaving
// that the removed `static thread_local` CDF holder used to share across
// experiments. The Stress suite is the dedicated TSan target the CI lane
// runs explicitly.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

namespace dcpim {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Pattern;
using harness::Protocol;

/// Small-but-real scenario: 2 racks x 4 hosts, short horizon, audit on so
/// audit summaries participate in the byte-identity check.
ExperimentConfig small_config(Protocol p, double load, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "imc10";
  cfg.load = load;
  cfg.seed = seed;
  cfg.gen_stop = TimePoint(us(120));
  cfg.measure_start = TimePoint(us(20));
  cfg.measure_end = TimePoint(us(120));
  cfg.horizon = TimePoint(ms(4));
  cfg.audit = true;
  return cfg;
}

/// The golden sweep of the satellite spec: 2 protocols x 3 loads.
std::vector<ExperimentConfig> golden_sweep() {
  std::vector<ExperimentConfig> configs;
  for (Protocol p : {Protocol::Dcpim, Protocol::Phost}) {
    for (double load : {0.3, 0.5, 0.7}) {
      configs.push_back(small_config(p, load, /*seed=*/42));
    }
  }
  return configs;
}

std::vector<std::string> fingerprints(
    const std::vector<ExperimentResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(harness::result_fingerprint(r));
  return out;
}

// ---- the headline guarantee -------------------------------------------------

TEST(SweepDeterminismTest, ParallelSweepBitIdenticalToSerial) {
  const std::vector<ExperimentConfig> configs = golden_sweep();
  harness::SweepOptions serial;
  serial.jobs = 1;
  harness::SweepOptions parallel;
  parallel.jobs = 4;
  const auto serial_fp = fingerprints(harness::run_sweep(configs, serial));
  const auto parallel_fp =
      fingerprints(harness::run_sweep(configs, parallel));
  ASSERT_EQ(serial_fp.size(), parallel_fp.size());
  for (std::size_t i = 0; i < serial_fp.size(); ++i) {
    EXPECT_EQ(serial_fp[i], parallel_fp[i])
        << "experiment " << i << " diverged between jobs=1 and jobs=4";
  }
}

TEST(SweepDeterminismTest, RepeatedParallelRunsAreStable) {
  // Same seed, same configs, two parallel executions: scheduling noise must
  // not leak into any result bit.
  const std::vector<ExperimentConfig> configs = golden_sweep();
  harness::SweepOptions opts;
  opts.jobs = 4;
  const auto first = fingerprints(harness::run_sweep(configs, opts));
  const auto second = fingerprints(harness::run_sweep(configs, opts));
  EXPECT_EQ(first, second);
}

TEST(SweepDeterminismTest, ResultsComeBackInSubmissionOrder) {
  // Distinguishable configs (different loads => different flow counts):
  // slot i of the parallel result must equal a direct serial run of cfg i.
  const std::vector<ExperimentConfig> configs = golden_sweep();
  harness::SweepOptions opts;
  opts.jobs = 3;
  const auto results = harness::run_sweep(configs, opts);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(harness::result_fingerprint(results[i]),
              harness::result_fingerprint(harness::run_experiment(configs[i])))
        << "slot " << i;
  }
}

TEST(SweepDeterminismTest, ProgressReportsEveryCompletion) {
  const std::vector<ExperimentConfig> configs = golden_sweep();
  harness::SweepOptions opts;
  opts.jobs = 4;
  std::vector<std::size_t> done_values;
  std::size_t seen_total = 0;
  opts.progress = [&](std::size_t done, std::size_t total) {
    done_values.push_back(done);
    seen_total = total;
  };
  harness::run_sweep(configs, opts);
  ASSERT_EQ(done_values.size(), configs.size());
  EXPECT_EQ(seen_total, configs.size());
  // Serialized by the runner: done must be exactly 1..N in order.
  for (std::size_t i = 0; i < done_values.size(); ++i) {
    EXPECT_EQ(done_values[i], i + 1);
  }
}

TEST(SweepDeterminismTest, MoreJobsThanExperimentsIsFine) {
  std::vector<ExperimentConfig> configs = {
      small_config(Protocol::Dcpim, 0.4, 7)};
  harness::SweepOptions opts;
  opts.jobs = 16;
  const auto results = harness::run_sweep(configs, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(harness::result_fingerprint(results[0]),
            harness::result_fingerprint(harness::run_experiment(configs[0])));
}

TEST(SweepDeterminismTest, ExperimentExceptionPropagatesToCaller) {
  std::vector<ExperimentConfig> configs = golden_sweep();
  configs[2].workload = "no-such-workload";
  harness::SweepOptions opts;
  opts.jobs = 4;
  EXPECT_THROW(harness::run_sweep(configs, opts), std::invalid_argument);
}

TEST(SweepDeterminismTest, ThrowingCellSkipsOnlyItsOwnOnResult) {
  // sweep.h: on_result fires once per successful cell and never for one that
  // threw, while progress still counts every cell before the rethrow.
  std::vector<ExperimentConfig> configs = golden_sweep();
  const std::size_t bad = 2;
  configs[bad].workload = "no-such-workload";
  harness::SweepOptions opts;
  opts.jobs = 4;
  std::vector<int> calls(configs.size(), 0);
  std::size_t last_done = 0;
  opts.on_result = [&](std::size_t index, const ExperimentResult&) {
    ++calls.at(index);
  };
  opts.progress = [&](std::size_t done, std::size_t) { last_done = done; };
  EXPECT_THROW(harness::run_sweep(configs, opts), std::invalid_argument);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(calls[i], i == bad ? 0 : 1) << "cell " << i;
  }
  EXPECT_EQ(last_done, configs.size());
}

TEST(SweepDeterminismTest, ThrowingCallbackFailsItsCell) {
  // A callback that throws on a spawned thread must reach the caller as that
  // cell's failure, not end the process. It throws for every cell, so it
  // throws on whichever thread runs one.
  const std::vector<ExperimentConfig> configs = {
      small_config(Protocol::Dcpim, 0.3, 5),
      small_config(Protocol::Phost, 0.3, 5)};
  harness::SweepOptions opts;
  opts.jobs = 2;
  opts.on_result = [](std::size_t, const ExperimentResult&) {
    throw std::runtime_error("journal write failed");
  };
  EXPECT_THROW(harness::run_sweep(configs, opts), std::runtime_error);
}

TEST(SweepDeterminismTest, EmptySweepCallsNoCallback) {
  harness::SweepOptions opts;
  opts.jobs = 4;
  int calls = 0;
  opts.on_result = [&](std::size_t, const ExperimentResult&) { ++calls; };
  opts.progress = [&](std::size_t, std::size_t) { ++calls; };
  EXPECT_TRUE(harness::run_sweep({}, opts).empty());
  EXPECT_EQ(calls, 0);
}

TEST(SweepDeterminismTest, NonPositiveJobsRunEveryCell) {
  // jobs <= 0 spawns no thread; the calling thread runs every cell.
  const std::vector<ExperimentConfig> configs = {
      small_config(Protocol::Dcpim, 0.3, 5),
      small_config(Protocol::Phost, 0.3, 5)};
  for (int jobs : {0, -3}) {
    harness::SweepOptions opts;
    opts.jobs = jobs;
    std::size_t completed = 0;
    opts.on_result = [&](std::size_t, const ExperimentResult&) {
      ++completed;
    };
    const auto results = harness::run_sweep(configs, opts);
    ASSERT_EQ(results.size(), configs.size()) << "jobs=" << jobs;
    EXPECT_EQ(completed, configs.size()) << "jobs=" << jobs;
    for (const ExperimentResult& r : results) {
      EXPECT_GT(r.flows_total, 0u) << "jobs=" << jobs;
    }
  }
}

TEST(SweepDeterminismTest, HardwareThreadsIsPositive) {
  EXPECT_GE(harness::hardware_threads(), 1);
}

// ---- fault injection under the determinism contract -------------------------

TEST(SweepDeterminismTest, FaultedSweepBitIdenticalToSerial) {
  // Every fault class at once (flap, loss window, targeted drop, stall) plus
  // the global loss_rate knob: all randomness must come from the per-port
  // fault streams and the injector's fault_seed RNG, never from scheduling,
  // so jobs=4 reproduces jobs=1 bit for bit — recovery metrics included.
  std::vector<ExperimentConfig> configs;
  for (Protocol p : {Protocol::Dcpim, Protocol::Ndp}) {
    ExperimentConfig faulted = small_config(p, 0.5, 42);
    faulted.faults =
        "flap:leaf0@30us:40us;loss:spine*:0.3@50us:60us;"
        "drop:grant:0.5@40us:30us;stall:host2@60us:20us";
    faulted.fault_seed = 7;
    configs.push_back(faulted);

    // Satellite regression: cfg.loss_rate draws now come from each port's
    // dedicated fault stream, not the shared workload RNG.
    ExperimentConfig lossy = small_config(p, 0.5, 42);
    lossy.loss_rate = 0.02;
    configs.push_back(lossy);
  }
  harness::SweepOptions serial;
  serial.jobs = 1;
  harness::SweepOptions parallel;
  parallel.jobs = 4;
  const auto serial_fp = fingerprints(harness::run_sweep(configs, serial));
  const auto parallel_fp = fingerprints(harness::run_sweep(configs, parallel));
  ASSERT_EQ(serial_fp.size(), parallel_fp.size());
  for (std::size_t i = 0; i < serial_fp.size(); ++i) {
    EXPECT_EQ(serial_fp[i], parallel_fp[i])
        << "faulted experiment " << i << " diverged between jobs=1 and jobs=4";
  }
}

TEST(SweepDeterminismTest, FaultedRunRepeatsExactly) {
  ExperimentConfig cfg = small_config(Protocol::Dcpim, 0.5, 42);
  cfg.faults = "blackhole:spine0@30us:40us;drop:token@20us:25us";
  const auto first = harness::run_experiment(cfg);
  const auto second = harness::run_experiment(cfg);
  EXPECT_TRUE(first.recovery.enabled);
  EXPECT_EQ(harness::result_fingerprint(first),
            harness::result_fingerprint(second));
}

// ---- seed sensitivity / state-leak regressions ------------------------------

TEST(SeedSensitivityTest, DifferentSeedsProduceDifferentArrivals) {
  // Guards against an accidentally ignored `seed` field: the Poisson
  // arrival sequence (and with it the result fingerprint) must change.
  const auto a = harness::run_experiment(small_config(Protocol::Dcpim, 0.5, 1));
  const auto b = harness::run_experiment(small_config(Protocol::Dcpim, 0.5, 2));
  EXPECT_NE(harness::result_fingerprint(a), harness::result_fingerprint(b));
}

TEST(SeedSensitivityTest, SameSeedTwiceInOneProcessIsIdentical) {
  // run_experiment must not leak state between calls in one process.
  const ExperimentConfig cfg = small_config(Protocol::Dcpim, 0.5, 3);
  const auto first = harness::run_experiment(cfg);
  const auto second = harness::run_experiment(cfg);
  EXPECT_EQ(harness::result_fingerprint(first),
            harness::result_fingerprint(second));
}

TEST(SeedSensitivityTest, UnrelatedRunBetweenTwoIdenticalRunsChangesNothing) {
  const ExperimentConfig cfg = small_config(Protocol::Phost, 0.5, 9);
  const auto first = harness::run_experiment(cfg);
  // A different protocol/seed/workload in between must not perturb cfg.
  harness::run_experiment(small_config(Protocol::Dcpim, 0.7, 1234));
  const auto second = harness::run_experiment(cfg);
  EXPECT_EQ(harness::result_fingerprint(first),
            harness::result_fingerprint(second));
}

// ---- the removed static CDF holder ------------------------------------------

TEST(FixedSizeIsolationTest, FixedAndEmpiricalExperimentsInterleaveCleanly) {
  // Regression for the `static thread_local` fixed-size CDF holder: a
  // fixed_size experiment between two identical empirical-workload runs
  // (and vice versa) must not change either result.
  ExperimentConfig empirical = small_config(Protocol::Dcpim, 0.5, 11);
  ExperimentConfig fixed = small_config(Protocol::Dcpim, 0.5, 11);
  fixed.fixed_size = kKB * 32;

  const auto empirical_before = harness::run_experiment(empirical);
  const auto fixed_first = harness::run_experiment(fixed);
  const auto empirical_after = harness::run_experiment(empirical);
  const auto fixed_second = harness::run_experiment(fixed);

  EXPECT_EQ(harness::result_fingerprint(empirical_before),
            harness::result_fingerprint(empirical_after));
  EXPECT_EQ(harness::result_fingerprint(fixed_first),
            harness::result_fingerprint(fixed_second));
}

TEST(FixedSizeIsolationTest, ConcurrentFixedSizeExperimentsAreIsolated) {
  // Two different fixed sizes running concurrently: with any shared sampler
  // one experiment would observe the other's flow-size distribution.
  ExperimentConfig small_fixed = small_config(Protocol::Dcpim, 0.5, 21);
  small_fixed.fixed_size = kKB * 16;
  ExperimentConfig big_fixed = small_config(Protocol::Dcpim, 0.5, 21);
  big_fixed.fixed_size = kKB * 256;
  const std::vector<ExperimentConfig> configs = {small_fixed, big_fixed,
                                                 small_fixed, big_fixed};
  harness::SweepOptions opts;
  opts.jobs = 4;
  const auto results = harness::run_sweep(configs, opts);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(harness::result_fingerprint(results[0]),
            harness::result_fingerprint(results[2]));
  EXPECT_EQ(harness::result_fingerprint(results[1]),
            harness::result_fingerprint(results[3]));
  EXPECT_NE(harness::result_fingerprint(results[0]),
            harness::result_fingerprint(results[1]));
}

TEST(FixedSizeIsolationTest, WorstCaseSentinelStillWorks) {
  // fixed_size = -1 (BDP+1, Fig 4b) goes through the same per-experiment
  // ownership path.
  ExperimentConfig cfg = small_config(Protocol::Dcpim, 0.5, 31);
  cfg.fixed_size = Bytes{-1};
  const auto first = harness::run_experiment(cfg);
  const auto second = harness::run_experiment(cfg);
  EXPECT_GT(first.flows_total, 0u);
  EXPECT_EQ(harness::result_fingerprint(first),
            harness::result_fingerprint(second));
}

// ---- concurrent-sweep stress (the dedicated TSan target) --------------------

TEST(SweepStressTest, ManyConcurrentMixedExperiments) {
  // Broad protocol mix, many experiments, jobs=8: the scenario the TSan CI
  // lane exists to interrogate. Every protocol family exercises its own
  // host/transport code concurrently with the others.
  std::vector<ExperimentConfig> configs;
  const Protocol protocols[] = {Protocol::Dcpim, Protocol::Phost,
                                Protocol::Homa, Protocol::Ndp,
                                Protocol::Hpcc, Protocol::Dctcp};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (Protocol p : protocols) {
      ExperimentConfig cfg = small_config(p, 0.4, seed);
      cfg.gen_stop = TimePoint(us(60));
      cfg.measure_end = TimePoint(us(60));
      cfg.horizon = TimePoint(ms(3));
      configs.push_back(cfg);
    }
  }
  harness::SweepOptions opts;
  opts.jobs = 8;
  const auto parallel = harness::run_sweep(configs, opts);
  harness::SweepOptions serial;
  serial.jobs = 1;
  const auto reference = harness::run_sweep(configs, serial);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(harness::result_fingerprint(parallel[i]),
              harness::result_fingerprint(reference[i]))
        << "experiment " << i;
  }
}

TEST(SweepStressTest, IncastAndDensePatternsUnderConcurrency) {
  // Pattern coverage beyond all-to-all: incast and dense-TM experiments
  // concurrently, checked against their serial fingerprints.
  std::vector<ExperimentConfig> configs;
  for (Protocol p : {Protocol::Dcpim, Protocol::Homa}) {
    ExperimentConfig incast = small_config(p, 0.5, 5);
    incast.pattern = Pattern::Incast;
    incast.incast_fanin = 6;
    incast.incast_size = kKB * 32;
    incast.measure_start = TimePoint{};
    incast.measure_end = TimePoint(us(1));
    incast.horizon = TimePoint(ms(5));
    configs.push_back(incast);

    ExperimentConfig dense = small_config(p, 0.5, 5);
    dense.pattern = Pattern::DenseTM;
    dense.dense_flow_size = kKB * 64;
    dense.gen_stop = TimePoint{};
    dense.measure_start = TimePoint{};
    dense.measure_end = TimePoint(us(200));
    dense.horizon = TimePoint(us(200));
    configs.push_back(dense);
  }
  harness::SweepOptions opts;
  opts.jobs = 4;
  const auto parallel = harness::run_sweep(configs, opts);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(harness::result_fingerprint(parallel[i]),
              harness::result_fingerprint(harness::run_experiment(configs[i])))
        << "experiment " << i;
  }
}

}  // namespace
}  // namespace dcpim
