// Tests for result reporting: the CSV metric table and the exact result
// fingerprint's inverse, on real audited and faulted cells.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "harness/report.h"

namespace dcpim::harness {
namespace {

ExperimentConfig sample_config() {
  ExperimentConfig config;
  config.protocol = Protocol::Dcpim;
  config.workload = "imc10";
  config.load = 0.6;
  return config;
}

ExperimentResult sample_result() {
  ExperimentResult r;
  r.flows_total = 10;
  r.flows_done = 10;
  r.overall.mean = 1.5;
  r.overall.p50 = 1.2;
  r.overall.p99 = 4.5;
  r.short_flows.mean = 1.02;
  r.short_flows.p99 = 1.2;
  r.goodput_ratio = 0.9;
  r.load_carried_ratio = 0.95;
  r.bdp = Bytes{70'000};
  r.data_rtt = us(5.6);
  r.control_rtt = us(5.3);
  return r;
}

std::string sample_row() {
  return to_csv_row("figX", sample_config(), sample_result());
}

TEST(ReportTest, RowMatchesHeaderArity) {
  const std::string header = csv_header();
  const std::string row = sample_row();
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(header), count(row));
}

TEST(ReportTest, RowContainsKeyFields) {
  const std::string row = sample_row();
  EXPECT_NE(row.find("figX,dcPIM,imc10,0.6"), std::string::npos);
  EXPECT_NE(row.find("1.02"), std::string::npos);
  EXPECT_NE(row.find(",70000 B,5.6,5.3,"), std::string::npos) << row;
}

TEST(ReportTest, HeaderNamesEveryMetric) {
  // The merged CSV's header, column for column as before the metric table.
  EXPECT_EQ(csv_header(),
            "experiment,protocol,workload,load,flows_total,flows_done,"
            "mean_slowdown,p50_slowdown,p99_slowdown,short_mean,short_p99,"
            "goodput_ratio,load_carried_ratio,drops,trims,pfc_pauses,"
            "bdp_bytes,data_rtt_us,control_rtt_us,audit_checks,"
            "audit_violations,fault_events,injected_drops,recovery_actions,"
            "flows_stalled,fault_active_us,mean_recovery_us,max_recovery_us,"
            "goodput_during_faults,goodput_after_faults,gray_drops,"
            "time_to_first_retx_us,degrade_active_us,goodput_during_degrade,"
            "srlg_groups,srlg_drops,srlg_flows_stalled,peak_pending");
  EXPECT_NE(find_metric("short_p99"), nullptr);
  // Outside the fingerprint, so a journaled result cannot report it.
  EXPECT_EQ(find_metric("peak_pending"), nullptr);
  EXPECT_EQ(find_metric("load"), nullptr);
}

/// The first `protocol` cell of a committed spec, audited and with fault
/// plan `faults` (empty = the spec's own), run.
ExperimentResult run_first_cell(const std::string& spec_file,
                                const std::string& protocol,
                                const std::string& faults) {
  const std::string path =
      std::string(DCPIM_CAMPAIGN_SPEC_DIR) + "/" + spec_file;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  campaign::CampaignSpec spec =
      campaign::parse_campaign_spec(text.str(), path);
  campaign::apply_overrides(spec, /*audit=*/true, faults, /*fault_seed=*/7);
  for (const campaign::Cell& cell : campaign::expand(spec)) {
    if (cell.label.rfind("protocol=" + protocol, 0) == 0) {
      return run_experiment(cell.config);
    }
  }
  ADD_FAILURE() << "no " << protocol << " cell in " << spec_file;
  return {};
}

void expect_round_trip(const ExperimentResult& r) {
  const std::string text = result_fingerprint(r);
  const std::optional<ExperimentResult> parsed =
      parse_result_fingerprint(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(result_fingerprint(*parsed), text);
}

TEST(ResultFingerprintTest, AuditedSmokeCellParsesBackByteExactly) {
  const ExperimentResult r = run_first_cell("smoke.campaign", "dcpim", "");
  ASSERT_TRUE(r.audit.enabled);
  ASSERT_FALSE(r.buckets.empty());
  ASSERT_FALSE(r.util_series.empty());
  expect_round_trip(r);
}

TEST(ResultFingerprintTest, FaultedProtocolsCellParsesBackByteExactly) {
  const ExperimentResult r = run_first_cell(
      "protocols.campaign", "ndp",
      "srlg:power=spine0+spine1@60us:40us;gray:leaf*:0.02@20us:120us;"
      "degrade:spine*:0.25@30us:50us");
  ASSERT_TRUE(r.recovery.enabled);
  ASSERT_EQ(r.recovery.srlg.size(), 1u);
  ASSERT_GT(r.recovery.gray_drops, 0u);
  expect_round_trip(r);
}

TEST(ResultFingerprintTest, RejectsAnythingElse) {
  ExperimentResult r;
  r.audit.enabled = true;
  r.audit.violations.push_back({TimePoint(us(3)), "probe", "a: b"});
  const std::string text = result_fingerprint(r);
  ASSERT_TRUE(parse_result_fingerprint(text).has_value());
  EXPECT_FALSE(parse_result_fingerprint("").has_value());
  EXPECT_FALSE(parse_result_fingerprint(text.substr(0, text.size() - 1)));
  EXPECT_FALSE(parse_result_fingerprint(text + "x"));
  std::string bad = text;
  bad.replace(bad.find("flows_done=0"), 12, "flows_done=-");
  EXPECT_FALSE(parse_result_fingerprint(bad));
}

}  // namespace
}  // namespace dcpim::harness
