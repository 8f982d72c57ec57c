// Tests for the simulation invariant auditor: the generic engine
// (sim/audit.h) and the standard probe set over a real dcPIM run
// (harness/audit_probes.h via the experiment harness).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dcpim_host.h"
#include "core/dcpim_packets.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "net/topology.h"
#include "sim/audit.h"
#include "sim/simulator.h"

namespace dcpim {
namespace {

TEST(AuditorTest, SweepCountsChecksPerProbe) {
  sim::Auditor auditor;
  int calls = 0;
  auditor.add_probe("counting", [&calls](sim::Auditor::Context&) { ++calls; });
  auditor.sweep(TimePoint(us(1)));
  auditor.sweep(TimePoint(us(2)));
  EXPECT_EQ(calls, 2);
  const sim::AuditSummary s = auditor.summary();
  EXPECT_TRUE(s.clean());
  EXPECT_EQ(s.sweeps, 2u);
  // Built-in monotonicity probe + "counting", each swept twice.
  EXPECT_EQ(s.checks, 4u);
}

TEST(AuditorTest, FailRecordsStructuredViolation) {
  sim::Auditor auditor;
  auditor.add_probe("broken", [](sim::Auditor::Context& ctx) {
    ctx.fail("the invariant broke");
  });
  auditor.sweep(TimePoint(us(3)));
  const sim::AuditSummary s = auditor.summary();
  EXPECT_FALSE(s.clean());
  ASSERT_EQ(s.violations.size(), 1u);
  EXPECT_EQ(s.violations[0].at, TimePoint(us(3)));
  EXPECT_EQ(s.violations[0].probe, "broken");
  EXPECT_EQ(s.violations[0].message, "the invariant broke");
}

TEST(AuditorTest, ViolationRecordingIsCappedButCounted) {
  sim::Auditor::Options opts;
  opts.max_recorded_violations = 2;
  sim::Auditor auditor(opts);
  auditor.add_probe("noisy", [](sim::Auditor::Context& ctx) {
    for (int i = 0; i < 5; ++i) ctx.fail("violation " + std::to_string(i));
  });
  auditor.sweep(TimePoint{});
  const sim::AuditSummary s = auditor.summary();
  EXPECT_EQ(s.violations_total, 5u);
  EXPECT_EQ(s.violations.size(), 2u);
}

TEST(AuditorTest, BuiltinProbeCatchesNonMonotonicSweeps) {
  sim::Auditor auditor;
  auditor.sweep(TimePoint(us(5)));
  auditor.sweep(TimePoint(us(4)));  // time went backwards
  EXPECT_FALSE(auditor.summary().clean());
}

TEST(AuditorTest, AttachedTickDoesNotKeepSimulationAlive) {
  sim::Simulator sim;
  sim::Auditor auditor;
  auditor.attach(sim);
  sim.schedule_at(TimePoint(us(25)), []() {});
  sim.run();  // must drain, not tick forever
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GE(auditor.summary().sweeps, 1u);
  EXPECT_TRUE(auditor.summary().clean());
}

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Protocol;
using harness::run_experiment;

ExperimentConfig audited_small(harness::Protocol p) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "imc10";
  cfg.load = 0.5;
  cfg.gen_stop = TimePoint(us(200));
  cfg.measure_start = TimePoint(us(20));
  cfg.measure_end = TimePoint(us(200));
  cfg.horizon = TimePoint(ms(5));
  cfg.audit = true;
  return cfg;
}

TEST(AuditedExperimentTest, DcpimRunIsClean) {
  const ExperimentResult res = run_experiment(audited_small(Protocol::Dcpim));
  EXPECT_TRUE(res.audit.enabled);
  EXPECT_GT(res.audit.sweeps, 1u);
  EXPECT_GT(res.audit.checks, 0u);
  EXPECT_TRUE(res.audit.clean())
      << harness::format_audit_summary(res.audit);
  // All nine standard probes plus the built-in monotonicity probe ran.
  EXPECT_EQ(res.audit.probes.size(), 10u);
  const std::string report = harness::format_audit_summary(res.audit);
  EXPECT_NE(report.find("flow-byte-conservation"), std::string::npos);
  EXPECT_NE(report.find("queue-occupancy"), std::string::npos);
  EXPECT_NE(report.find("dcpim-token-accounting"), std::string::npos);
  EXPECT_NE(report.find("dcpim-matching"), std::string::npos);
  EXPECT_NE(report.find("dcpim-channel-ledger"), std::string::npos);
  EXPECT_NE(report.find("pfc-pause-ledger"), std::string::npos);
  EXPECT_NE(report.find("packet-pool-hygiene"), std::string::npos);
  EXPECT_NE(report.find("dcpim-epoch-rollover"), std::string::npos);
  EXPECT_NE(report.find("clean"), std::string::npos);
}

/// Exposes the protected packet entry point so a test can hand a host a
/// forged control packet without routing it through the fabric.
struct ForgeableDcpimHost : core::DcpimHost {
  using core::DcpimHost::DcpimHost;
  using core::DcpimHost::on_packet;
};

TEST(AuditedExperimentTest, ChannelLedgerCatchesForgedAccept) {
  core::DcpimConfig cfg;
  net::Network net{net::NetConfig{}};
  net::LeafSpineParams params;
  params.racks = 2;
  params.hosts_per_rack = 2;
  params.spines = 1;
  const net::Topology topo = net::Topology::leaf_spine(
      net, params,
      [&cfg](net::Network& n, int id) -> net::Host* {
        return n.add_device<ForgeableDcpimHost>(id, cfg);
      });

  // Host 1 claims two channels against host 0 in an epoch where host 0
  // never granted it anything — a double-spend the matching-range audit
  // cannot see (2 <= cfg.channels), but the per-receiver ledger can.
  auto acc = std::make_unique<core::AcceptPacket>();
  acc->src = 1;
  acc->dst = 0;
  acc->kind = core::kAccept;
  acc->control = true;
  acc->epoch = 5;
  acc->channels_accepted = 2;
  auto* h0 = static_cast<ForgeableDcpimHost*>(net.host(0));
  h0->on_packet(std::move(acc));

  std::vector<std::string> matching;
  h0->audit_matching(matching);
  EXPECT_TRUE(matching.empty()) << matching[0];
  std::vector<std::string> ledger;
  h0->audit_channel_ledger(ledger);
  ASSERT_FALSE(ledger.empty());
  EXPECT_NE(ledger[0].find("double-spend"), std::string::npos) << ledger[0];
}

TEST(AuditedExperimentTest, NonDcpimProtocolAlsoClean) {
  // The dcPIM probes must degrade to no-ops for other protocols.
  const ExperimentResult res = run_experiment(audited_small(Protocol::Ndp));
  EXPECT_TRUE(res.audit.enabled);
  EXPECT_TRUE(res.audit.clean())
      << harness::format_audit_summary(res.audit);
}

TEST(AuditedExperimentTest, DisabledByDefault) {
  ExperimentConfig cfg = audited_small(Protocol::Dcpim);
  cfg.audit = false;
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_FALSE(res.audit.enabled);
  EXPECT_EQ(harness::format_audit_summary(res.audit), "audit: disabled");
}

}  // namespace
}  // namespace dcpim
