// Campaign execution: expanded grid -> run_sweep -> journal -> report.
//
// The runner is where the three determinism contracts meet:
//   * expansion order (grid.h) fixes cell indices, so the final report is
//     assembled in submission order however the sweep threads interleave;
//   * the journal (journal.h) is written in completion order but read by
//     cell fingerprint, so a resumed campaign slots cached rows back into
//     their submission-order positions — stdout and the merged CSV are
//     byte-identical whether the campaign ran once, was killed and
//     resumed, or ran with a different --jobs;
//   * overrides (--audit/--faults/--fault-seed) are folded into the spec
//     BEFORE expansion, so they participate in cell fingerprints — a
//     cached plain cell never satisfies a faulted run of the same grid.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/grid.h"
#include "campaign/spec.h"
#include "harness/experiment.h"

namespace dcpim::campaign {

struct CampaignOptions {
  int jobs = 1;
  /// Journal file for fingerprint-cached resume; empty disables journaling
  /// (every cell executes, nothing is cached).
  std::string journal_path;
  /// Run at most this many not-yet-cached cells this invocation (0 = no
  /// limit). Cached cells are always reported; the CI smoke lane uses this
  /// to simulate an interrupted campaign deterministically.
  std::size_t max_cells = 0;
  /// Progress callback, forwarded to run_sweep over the executing subset
  /// (serialized; stderr-only by bench convention).
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// One cell's outcome in submission order.
struct CellOutcome {
  std::size_t index = 0;
  std::string label;
  std::uint64_t cell_fp = 0;
  std::uint64_t result_fnv = 0;  ///< fnv1a(result_fingerprint)
  std::string csv_row;
  /// parse_result_fingerprint(result_fingerprint(run)) for executed and
  /// cached cells alike, so the report reads the same bytes either way.
  harness::ExperimentResult result;
  bool cached = false;    ///< satisfied from the journal, not executed
  bool executed = false;  ///< ran this invocation
  bool skipped = false;   ///< deferred by max_cells (no result yet)
};

struct CampaignReport {
  std::string name;                    ///< [campaign] name
  std::vector<CellOutcome> outcomes;   ///< submission order, one per cell
  std::size_t cached = 0;
  std::size_t executed = 0;
  std::size_t skipped = 0;
  bool complete() const { return skipped == 0; }
};

/// Folds bench-style override flags into the spec's base sections (audit,
/// [faults] plan / fault_seed) so they alter every cell fingerprint.
/// `faults` is validated against the fault-plan grammar; throws
/// CampaignError on a malformed plan. Empty `faults` leaves the spec's own
/// plan untouched; `audit=false` likewise.
void apply_overrides(CampaignSpec& spec, bool audit,
                     const std::string& faults, std::uint64_t fault_seed);

/// Expands and runs the spec. Cells whose fingerprint is already journaled
/// are reported as cached without re-executing; the rest (bounded by
/// max_cells) run on run_sweep with `jobs` workers, each appended to the
/// journal the moment it completes. Throws CampaignError on constraint
/// problems and propagates experiment exceptions.
CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options);

/// Writes `<dir>/<name>.csv` from a complete report: header plus one row
/// per cell in submission order, truncating any previous file so the
/// merged CSV of a resumed campaign is byte-identical to a single-shot
/// run. Returns false if the report is incomplete or the file is
/// unwritable.
bool write_merged_csv(const std::string& dir, const CampaignReport& report);

/// The spec's [report] over a complete campaign's results: a header
/// (title, paper, DCPIM_BENCH_SCALE), then each table under its own
/// canonical text. Cells with an audit or a fault plan get their
/// format_audit_summary / format_recovery_stats blocks under their rows of
/// the first table. Empty when the spec has no [report] or the campaign is
/// incomplete.
std::string render_report(const CampaignSpec& spec,
                          const CampaignReport& report);

}  // namespace dcpim::campaign
