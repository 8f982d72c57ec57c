// Cartesian grid expansion of a CampaignSpec into runnable cells.
//
// Expansion is a pure function of the spec (plus DCPIM_BENCH_SCALE when
// [timing] scaled is set): the axes are walked in declaration order with
// the last axis varying fastest, constraint-excluded combinations are
// dropped, and the surviving cells are numbered 0..N-1 in that order. The
// order is run_sweep's submission order — and therefore every
// deterministic-output contract downstream — keys off, so it must never
// depend on jobs, wall clock, or container state.
//
// Each cell carries a `fingerprint`: FNV-1a over the cell's canonical
// single-cell spec text (cell_spec_text) — the base sections with the
// cell's axis assignment merged in, WITHOUT the [campaign] section, the
// [sweep] axes, or the [constraints]. Consequences, by design:
//   * renaming a campaign or reordering/annotating axes and constraints
//     invalidates nothing;
//   * editing a base key invalidates every cell; editing one axis value
//     invalidates exactly the cells that used it;
//   * the fingerprint is the campaign-journal cache key (journal.h), so
//     "invalidates" means precisely "will re-execute on the next run".
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/spec.h"
#include "harness/experiment.h"

namespace dcpim::campaign {

/// One expanded grid point, ready to run.
struct Cell {
  std::size_t index = 0;  ///< submission order within the campaign
  /// Axis assignment in axis declaration order (canonical value tokens).
  std::vector<std::pair<std::string, std::string>> assignment;
  std::string label;            ///< "key=value key=value" (axis order)
  std::uint64_t fingerprint = 0;  ///< fnv1a(cell_spec_text)
  harness::ExperimentConfig config;
};

/// Expands the spec into cells (see file comment for order/fingerprint
/// semantics). Throws CampaignError (with the spec's file name) on
/// constraint compilation failures; value tokens were already validated at
/// parse time.
std::vector<Cell> expand(const CampaignSpec& spec);

/// Canonical single-cell spec: the spec's base sections with `assignment`
/// merged over them (axis values win), no [campaign]/[sweep]/[constraints].
/// This text is what the cell fingerprint hashes.
std::string cell_spec_text(
    const CampaignSpec& spec,
    const std::vector<std::pair<std::string, std::string>>& assignment);

/// Compiles every [constraints] entry, failing with a one-line
/// file:line CampaignError on syntax errors, unknown keys, constraints on
/// keys that are neither set nor swept, unknown @references, or reference
/// cycles (reported as `a -> b -> a`). Called by parse_campaign_spec; a
/// spec that parsed cleanly always expands cleanly.
void validate_constraints(const CampaignSpec& spec);

/// "cell 007 protocol=dcpim load=0.5 result=0123456789abcdef" — the
/// per-cell stdout line of bench/campaign, which the `.expected` anchors
/// pin.
std::string format_cell_line(std::size_t index, const std::string& label,
                             std::uint64_t result_fnv);

}  // namespace dcpim::campaign
