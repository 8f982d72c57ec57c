// Result reporting: the metric table behind the CSV export and the
// campaign `[report]` renderer, the human-readable audit and recovery
// blocks, and the exact result fingerprint with its inverse.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "harness/experiment.h"

namespace dcpim::harness {

/// One result column: its CSV name, its kind, and its getter.
struct Metric {
  enum class Kind {
    kReal,   ///< CSV: default ostream formatting; report: 2 decimals
    kRatio,  ///< as kReal, but 3 decimals
    kCount,  ///< CSV and report: a whole number
    kBytes,  ///< as kCount, but the CSV adds the " B" suffix
  };
  const char* name;
  Kind kind;
  double (*get)(const ExperimentResult&);

  /// Decimals a report prints unless its table says otherwise.
  int digits() const {
    return kind == Kind::kReal ? 2 : kind == Kind::kRatio ? 3 : 0;
  }
};

/// The result columns a report may print, in CSV order. The CSV adds
/// peak_pending last, which result_fingerprint() leaves out, so a report
/// (which reads journaled results) cannot.
std::span<const Metric> metrics();

/// The metric named `name`, or nullptr.
const Metric* find_metric(const std::string& name);

/// CSV header matching to_csv_row().
std::string csv_header();

/// One CSV row: experiment,protocol,workload,load,<metrics...>,peak_pending
/// for one run of `config` in the campaign named `experiment`.
std::string to_csv_row(const std::string& experiment,
                       const ExperimentConfig& config,
                       const ExperimentResult& result);

/// Multi-line human-readable audit report: per-probe check/violation counts
/// plus the first recorded violations. Returns "audit: disabled" when the
/// experiment ran without auditing.
std::string format_audit_summary(const sim::AuditSummary& audit);

/// Multi-line human-readable fault-recovery report (--faults runs): event
/// and injected-drop counts, recovery times, goodput during/after faults.
/// Returns "faults: disabled" when no FaultPlan was installed.
std::string format_recovery_stats(const sim::fault::RecoveryStats& r);

/// Exact serialization of every outcome field of an ExperimentResult —
/// slowdown summaries, all size buckets, the full utilization series, the
/// recovery metrics and the audit summary — with doubles rendered as hex
/// floats (%a) so equal fingerprints mean bit-identical results. This is
/// the equality the determinism test layer (tests/test_sweep_determinism.cpp)
/// asserts between serial and parallel sweeps, and the text the campaign
/// journal stores per cell. pool_acquired, pool_recycled and peak_pending
/// are left out.
std::string result_fingerprint(const ExperimentResult& result);

/// Inverse of result_fingerprint(): the result whose fingerprint is exactly
/// `text`, or nullopt when `text` is not such a fingerprint (a torn or
/// foreign journal entry). The fields the fingerprint leaves out stay at
/// their defaults.
std::optional<ExperimentResult> parse_result_fingerprint(
    const std::string& text);

}  // namespace dcpim::harness
