// Campaign specs: paper figures as data instead of C++ (DESIGN.md §14).
//
// A campaign spec is a small TOML-like text format describing one
// experiment grid: a base scenario (topology, timing, traffic matrix,
// protocol parameters, fault plan) plus Cartesian sweep axes and axis
// constraints, and optionally the tables that present its results.
// bench/campaign expands a spec, runs its cells with harness::run_sweep
// and prints its [report], so a figure exists in exactly one place and can
// be added or edited without touching C++.
//
// Grammar (line-oriented; `#` starts a full-line comment; blank lines
// separate nothing — they are purely cosmetic):
//
//   [campaign]            name (required)
//   [topology]            topo, racks, hosts_per_rack, spines, fat_tree_k
//   [timing]              scaled, gen_stop, horizon, measure_start,
//                         measure_end, util_bin   (ns/us/ms/s literals;
//                         scaled = true stretches gen_stop/horizon/
//                         measure_* by DCPIM_BENCH_SCALE at expansion)
//   [traffic]             pattern, workload, load, fixed_size, seed,
//                         incast_*, dense_flow_size, loss_rate
//   [protocol]            protocol, dcpim.rounds, dcpim.channels,
//                         dcpim.beta, dcpim.fct_optimizing_first_round,
//                         dcpim.flow_size_aware, dcpim.pipeline_phases,
//                         dcpim.clock_jitter, dcpim.long_flow_priorities
//   [faults]              plan (the --faults grammar of
//                         sim/fault/fault_plan.h), fault_seed
//   [harness]             audit
//   [sweep]               <key> = v1, v2, ...   — any sweepable key above
//                         becomes a Cartesian axis (declaration order;
//                         the last axis varies fastest)
//   [constraints]         <name> = <predicate> defines a named predicate;
//                         exclude = <predicate> removes matching cells.
//                         Predicates: key=value atoms, `@name` references,
//                         `!`, `&`, `|`, parentheses (& binds tighter).
//   [report]              title, paper (free text), and one or more
//                         table = <metrics> by <axis|cell> [x <axis>]
//                         [per <axis>] [normalize <value>] [knee <ratio>]
//                         [steady <bin>]: the tables bench/campaign prints
//                         after the cell lines (DESIGN.md §14). Metrics are
//                         CSV result columns, `buckets` or `util_series`;
//                         `name:N` prints N decimals. by/x/per name every
//                         sweep axis, or the rows are the cells (`by
//                         cell`). No cell fingerprint covers the report.
//
// Every diagnostic is one line, `file:line: message` (CampaignError) — no
// stack traces, no multi-line dumps. Canonical form: to_spec() emits
// sections and keys in a fixed order and drops comments; parse(to_spec(s))
// re-emits the same text byte-exactly.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace dcpim::campaign {

/// One-line, position-annotated spec diagnostic: `file:line: message`.
class CampaignError : public std::runtime_error {
 public:
  CampaignError(const std::string& file, int line, const std::string& message)
      : std::runtime_error(file + ":" + std::to_string(line) + ": " +
                           message) {}
};

/// One sweep axis: `key = v1, v2, ...` under [sweep], declaration order.
struct Axis {
  std::string key;
  std::vector<std::string> values;  ///< validated canonical tokens
  int line = 0;                     ///< spec line (diagnostics)
};

/// One [constraints] entry: a named predicate or (name == "exclude") an
/// exclusion rule. Expressions are kept as text and compiled at expansion.
struct ConstraintDef {
  std::string name;
  std::string expr;
  int line = 0;
};

/// One [report] `table =` line.
struct ReportTable {
  std::vector<std::string> metrics;  ///< tokens: `name` or `name:digits`
  std::string rows;                  ///< sweep axis key, or "cell"
  std::string columns;               ///< `x` axis key; empty = none
  std::string per;                   ///< `per` axis key; empty = none
  std::string normalize;             ///< column value; empty = none
  std::string knee;                  ///< ratio token; empty = none
  std::string steady;                ///< util_series mean start bin
  int line = 0;                      ///< spec line (diagnostics)
};

/// The [report] section; `line == 0` when the spec has none.
struct ReportSpec {
  std::string title;
  std::string paper;
  std::vector<ReportTable> tables;  ///< declaration order
  int line = 0;
};

struct CampaignSpec {
  std::string name;  ///< [campaign] name — CSV experiment label
  /// [timing] scaled: stretch gen_stop/horizon/measure_start/measure_end
  /// by DCPIM_BENCH_SCALE when cells are expanded (util_bin stays fixed,
  /// matching the hand-built bench scenarios this format replaces).
  bool scaled_timing = false;
  /// Base scenario: canonical key -> validated value token. Only keys the
  /// spec set explicitly; everything else keeps ExperimentConfig defaults.
  std::map<std::string, std::string> base;
  std::vector<Axis> axes;                    ///< declaration order
  std::vector<ConstraintDef> predicates;     ///< named, declaration order
  std::vector<ConstraintDef> excludes;       ///< declaration order
  ReportSpec report;                         ///< not part of any cell
  std::string file = "<spec>";               ///< source name (diagnostics)
};

/// Parses and validates a spec. Every value token is type-checked against
/// the key registry (including the [faults] plan, which must satisfy
/// parse_fault_spec), axes are checked for duplicates, and constraint
/// expressions are compiled once to surface unknown keys/references and
/// reference cycles, and [report] tables are checked against the metric
/// table and the axes — all as one-line CampaignError diagnostics carrying
/// `file`:line. `file` is used for diagnostics only.
CampaignSpec parse_campaign_spec(const std::string& text,
                                 const std::string& file = "<spec>");

/// Canonical serialization: fixed section and key order, `key = value`
/// spacing, axes and constraints in declaration order. Round-trip
/// guarantee: parse_campaign_spec(to_spec(s)) yields a spec whose to_spec
/// is byte-identical.
std::string to_spec(const CampaignSpec& spec);

/// The sweep axis named `key`, or nullptr.
const Axis* find_axis(const CampaignSpec& spec, const std::string& key);

/// A table line's canonical text (what follows `table = `).
std::string table_text(const ReportTable& table);

/// Splits a metric token `name[:digits]`; digits is -1 when absent.
std::pair<std::string, int> split_metric(const std::string& token);

/// True if `key` names a registered base key (spelled canonically).
bool is_registered_key(const std::string& key);

/// Applies one validated key token to a config. Internal building block of
/// grid expansion; exposed for tests. Throws std::invalid_argument on an
/// unknown key or a token that fails validation.
void apply_key(harness::ExperimentConfig& config, const std::string& key,
               const std::string& value);

/// FNV-1a over `text` — the cell-fingerprint hash (also the short result
/// id perf records use). Stable across platforms and runs.
std::uint64_t fnv1a(const std::string& text);

}  // namespace dcpim::campaign
