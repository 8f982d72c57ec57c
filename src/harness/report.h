// Result reporting: CSV export of experiment results so figures can be
// re-plotted outside the terminal. Bench binaries append to
// $DCPIM_BENCH_CSV/<experiment>.csv when that directory is set.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace dcpim::harness {

/// One labelled result row (a point on a figure).
struct ReportRow {
  std::string experiment;  ///< e.g. "fig3a"
  std::string protocol;
  std::string workload;
  double load = 0;
  ExperimentResult result;
};

/// The row of one run of `config` in the sweep named `experiment`.
ReportRow report_row(const std::string& experiment,
                     const ExperimentConfig& config,
                     const ExperimentResult& result);

/// CSV header matching to_csv_row().
std::string csv_header();

/// Multi-line human-readable audit report: per-probe check/violation counts
/// plus the first recorded violations. Returns "audit: disabled" when the
/// experiment ran without auditing.
std::string format_audit_summary(const sim::AuditSummary& audit);

/// Multi-line human-readable fault-recovery report (--faults runs): event
/// and injected-drop counts, recovery times, goodput during/after faults.
/// Returns "faults: disabled" when no FaultPlan was installed.
std::string format_recovery_stats(const sim::fault::RecoveryStats& r);

/// Flattens a row: experiment,protocol,workload,load,<metrics...>.
std::string to_csv_row(const ReportRow& row);

/// Exact serialization of EVERY field of an ExperimentResult — slowdown
/// summaries, all size buckets, the full utilization series, and the audit
/// summary — with doubles rendered as hex floats (%a) so equal fingerprints
/// mean bit-identical results. This is the equality the determinism test
/// layer (tests/test_sweep_determinism.cpp) asserts between serial and
/// parallel sweeps; it is also handy for diffing two runs by hand.
std::string result_fingerprint(const ExperimentResult& result);

/// Appends rows to `<dir>/<experiment>.csv` (with a header when the file is
/// new). Returns false (quietly) if the directory is unwritable.
bool append_csv(const std::string& dir, const std::vector<ReportRow>& rows);

/// Directory from $DCPIM_BENCH_CSV, or empty when unset.
std::string csv_dir_from_env();

}  // namespace dcpim::harness
