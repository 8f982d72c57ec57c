#include "campaign/runner.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "campaign/journal.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "sim/fault/fault_plan.h"
#include "util/check.h"
#include "util/env.h"

namespace dcpim::campaign {

void apply_overrides(CampaignSpec& spec, bool audit,
                     const std::string& faults, std::uint64_t fault_seed) {
  if (audit) spec.base["audit"] = "true";
  if (!faults.empty()) {
    try {
      (void)sim::fault::parse_fault_spec(faults);
    } catch (const std::invalid_argument& e) {
      throw CampaignError(spec.file, 0,
                          std::string("--faults override: ") + e.what());
    }
    spec.base["plan"] = faults;
    spec.base["fault_seed"] = std::to_string(fault_seed);
  }
}

CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  const std::vector<Cell> cells = expand(spec);

  CampaignReport report;
  report.name = spec.name;
  report.outcomes.resize(cells.size());

  std::map<std::uint64_t, JournalEntry> journal;
  if (!options.journal_path.empty()) {
    journal = load_journal(options.journal_path);
  }

  // Partition: cached cells are satisfied immediately; the remainder run,
  // clipped to max_cells in submission order (the clipped tail is reported
  // as skipped so complete() and the exit code can say "come back").
  std::vector<std::size_t> to_run;  // indices into `cells`
  for (const Cell& cell : cells) {
    CellOutcome& out = report.outcomes[cell.index];
    out.index = cell.index;
    out.label = cell.label;
    out.cell_fp = cell.fingerprint;
    const auto hit = journal.find(cell.fingerprint);
    std::optional<harness::ExperimentResult> cached;
    if (hit != journal.end()) {
      cached = harness::parse_result_fingerprint(hit->second.fingerprint);
    }
    if (cached) {
      out.cached = true;
      out.result_fnv = fnv1a(hit->second.fingerprint);
      out.csv_row = hit->second.csv_row;
      out.result = std::move(*cached);
      ++report.cached;
    } else if (options.max_cells != 0 && to_run.size() >= options.max_cells) {
      out.skipped = true;
      ++report.skipped;
    } else {
      to_run.push_back(cell.index);
    }
  }
  if (to_run.empty()) return report;

  std::vector<harness::ExperimentConfig> configs;
  configs.reserve(to_run.size());
  for (std::size_t idx : to_run) configs.push_back(cells[idx].config);

  std::optional<JournalWriter> writer_storage;
  JournalWriter* writer = nullptr;
  if (!options.journal_path.empty()) {
    writer_storage.emplace(options.journal_path);
    if (writer_storage->ok()) writer = &*writer_storage;
  }

  harness::SweepOptions sweep;
  sweep.jobs = options.jobs;
  sweep.progress = options.progress;
  // Journal in completion order, under the runner's serialization; the
  // report itself is assembled from the submission-order results below.
  sweep.on_result = [&](std::size_t run_index,
                        const harness::ExperimentResult& result) {
    if (writer == nullptr) return;
    const Cell& cell = cells[to_run[run_index]];
    writer->append({cell.fingerprint,
                    harness::to_csv_row(spec.name, cell.config, result),
                    harness::result_fingerprint(result)});
  };

  const std::vector<harness::ExperimentResult> results =
      harness::run_sweep(configs, sweep);

  for (std::size_t r = 0; r < to_run.size(); ++r) {
    const Cell& cell = cells[to_run[r]];
    CellOutcome& out = report.outcomes[cell.index];
    const std::string fingerprint = harness::result_fingerprint(results[r]);
    out.executed = true;
    out.result_fnv = fnv1a(fingerprint);
    out.csv_row = harness::to_csv_row(spec.name, cell.config, results[r]);
    std::optional<harness::ExperimentResult> parsed =
        harness::parse_result_fingerprint(fingerprint);
    DCPIM_CHECK(parsed.has_value(), "result_fingerprint did not parse back");
    out.result = std::move(*parsed);
    ++report.executed;
  }
  return report;
}

bool write_merged_csv(const std::string& dir, const CampaignReport& report) {
  if (!report.complete() || dir.empty()) return false;
  const std::string path = dir + "/" + report.name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", harness::csv_header().c_str());
  for (const CellOutcome& out : report.outcomes) {
    std::fprintf(f, "%s\n", out.csv_row.c_str());
  }
  std::fclose(f);
  return true;
}

namespace {

using Want = std::vector<std::pair<std::string, std::string>>;
/// One text row of a table and the cells whose blocks follow it.
using Row = std::pair<std::vector<std::string>, std::vector<const Cell*>>;

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Bucket label like "<18K", "18K-73K", ">4.7M".
std::string bucket_label(Bytes lo, Bytes hi) {
  const auto human = [](Bytes b) {
    return b >= kMB ? fixed(to_mb(b), 1) + "M" : std::to_string(b / kKB) + "K";
  };
  if (lo == Bytes{}) return "<" + human(hi);
  if (hi == Bytes{}) return ">" + human(lo);
  return human(lo) + "-" + human(hi);
}

/// The first cell whose axis assignment holds every (key, value) of `want`.
const Cell* find_cell(const std::vector<Cell>& cells, const Want& want) {
  for (const Cell& cell : cells) {
    const auto& a = cell.assignment;
    if (std::all_of(want.begin(), want.end(), [&a](const auto& w) {
          return std::find(a.begin(), a.end(), w) != a.end();
        })) {
      return &cell;
    }
  }
  return nullptr;
}

/// Column-aligned text (first column left, the rest right; the first row
/// is the header), each row followed by its cells' audit and recovery
/// blocks when `blocks` is set.
std::string print_table(const std::vector<Row>& rows,
                        const std::vector<CellOutcome>& outcomes,
                        bool blocks) {
  std::vector<std::size_t> widths;
  for (const Row& row : rows) {
    widths.resize(std::max(widths.size(), row.first.size()));
    for (std::size_t c = 0; c < row.first.size(); ++c) {
      widths[c] = std::max(widths[c], row.first[c].size());
    }
  }
  std::string out;
  for (const auto& [text, shown] : rows) {
    out += "  " + text[0];
    for (std::size_t c = 1; c < text.size(); ++c) {
      if (c == 1) out += std::string(widths[0] - text[0].size(), ' ');
      out += std::string(widths[c] - text[c].size() + 2, ' ') + text[c];
    }
    out += "\n";
    if (!blocks) continue;
    for (const Cell* cell : shown) {
      const harness::ExperimentResult& res = outcomes[cell->index].result;
      if (res.audit.enabled) {
        out += "    " + harness::format_audit_summary(res.audit) + "\n";
      }
      if (res.recovery.enabled) {
        out += "    " + harness::format_recovery_stats(res.recovery) + "\n";
      }
    }
  }
  return out;
}

/// One table over the cells matching `filter` (a `per` value, or none).
std::vector<Row> build_table(const CampaignSpec& spec, const ReportTable& t,
                             const std::vector<Cell>& cells,
                             const std::vector<CellOutcome>& outcomes,
                             const Want& filter) {
  const auto result = [&outcomes](const Cell* c) -> const auto& {
    return outcomes[c->index].result;
  };
  const auto cell_at = [&cells](Want want, const std::string& column,
                                const std::string& value) {
    want.emplace_back(column, value);
    return find_cell(cells, want);
  };
  // Row label and the assignment that selects its cells.
  std::vector<std::pair<std::string, Want>> rows;
  if (t.rows == "cell") {
    for (const Cell& cell : cells) {
      rows.emplace_back(cell.label, cell.assignment);
    }
  } else {
    for (const std::string& value : find_axis(spec, t.rows)->values) {
      Want want = filter;
      want.emplace_back(t.rows, value);
      rows.emplace_back(value, std::move(want));
    }
  }
  std::vector<Row> out;

  if (!t.columns.empty()) {
    // One scalar metric per cell, a column per value of the `x` axis.
    const auto [name, digits] = split_metric(t.metrics[0]);
    const harness::Metric& metric = *harness::find_metric(name);
    const std::vector<std::string>& columns =
        find_axis(spec, t.columns)->values;
    std::vector<std::string> head = {t.rows};
    head.insert(head.end(), columns.begin(), columns.end());
    if (!t.knee.empty()) head.emplace_back("knee");
    out.push_back({head, {}});
    for (const auto& [label, want] : rows) {
      double baseline = 1.0;
      if (!t.normalize.empty()) {
        const Cell* base = cell_at(want, t.columns, t.normalize);
        baseline = base != nullptr ? metric.get(result(base)) : 0.0;
      }
      Row row{{label}, {}};
      std::string knee = "-";
      for (const std::string& column : columns) {
        const Cell* cell = cell_at(want, t.columns, column);
        if (cell == nullptr) {
          row.first.emplace_back("-");
          continue;
        }
        const double v =
            baseline > 0 ? metric.get(result(cell)) / baseline : 0.0;
        row.first.push_back(fixed(v, digits < 0 ? metric.digits() : digits));
        row.second.push_back(cell);
        if (!t.knee.empty() && v >= std::stod(t.knee)) knee = column;
      }
      if (!t.knee.empty()) row.first.push_back(knee);
      out.push_back(std::move(row));
    }
    return out;
  }

  for (const auto& [label, want] : rows) {
    const Cell* cell = find_cell(cells, want);
    if (cell == nullptr) continue;
    const harness::ExperimentResult& res = result(cell);
    std::vector<std::string> head = {t.rows};
    std::vector<std::string> text = {label};
    std::vector<std::string> p99 = {"", "p99"};  // `buckets`' second row
    bool buckets = false;
    for (const std::string& token : t.metrics) {
      const auto [name, digits] = split_metric(token);
      if (name == "buckets") {
        // Mean and p99 per size bucket (alone in its table).
        buckets = true;
        head.emplace_back("");
        text.emplace_back("mean");
        for (const stats::BucketSummary& b : res.buckets) {
          const bool none = b.slowdown.count == 0;
          const int places = digits < 0 ? 2 : digits;
          head.push_back(bucket_label(b.lo, b.hi));
          text.push_back(none ? "-" : fixed(b.slowdown.mean, places));
          p99.push_back(none ? "-" : fixed(b.slowdown.p99, places));
        }
      } else if (name == "util_series") {
        // The series per util_bin up to the horizon, then its mean from
        // bin `steady` on.
        std::size_t i = 0;
        for (Time t0{}; t0 < cell->config.horizon.since_start();
             t0 += cell->config.util_bin, ++i) {
          head.push_back(fixed(to_us(t0), 0));
          text.push_back(fixed(
              i < res.util_series.size() ? res.util_series[i] : 0.0, 2));
        }
        const std::size_t from = t.steady.empty() ? 0 : std::stoul(t.steady);
        head.emplace_back("mean");
        text.push_back(fixed(res.mean_util(from, res.util_series.size()),
                             digits < 0 ? 2 : digits));
      } else {
        const harness::Metric& metric = *harness::find_metric(name);
        head.emplace_back(name);
        text.push_back(
            fixed(metric.get(res), digits < 0 ? metric.digits() : digits));
      }
    }
    if (out.empty()) out.push_back({head, {}});
    if (buckets) {
      out.push_back({text, {}});
      out.push_back({p99, {cell}});
    } else {
      out.push_back({text, {cell}});
    }
  }
  return out;
}

}  // namespace

std::string render_report(const CampaignSpec& spec,
                          const CampaignReport& report) {
  const ReportSpec& rep = spec.report;
  if (rep.tables.empty() || !report.complete()) return "";
  const std::vector<Cell> cells = expand(spec);
  std::string out = "\n=== " + rep.title + " ===\n";
  if (!rep.paper.empty()) out += "paper: " + rep.paper + "\n";
  out += "(DCPIM_BENCH_SCALE=" + fixed(bench_scale(), 2) +
         "; see EXPERIMENTS.md for method)\n";
  // Every table shows every cell, so only the first carries the blocks.
  bool blocks = true;
  for (const ReportTable& table : rep.tables) {
    out += "\n  " + table_text(table) + "\n";
    const auto print = [&](const Want& filter) {
      out += print_table(
          build_table(spec, table, cells, report.outcomes, filter),
          report.outcomes, blocks);
    };
    if (table.per.empty()) print({});
    for (const std::string& value :
         table.per.empty() ? std::vector<std::string>{}
                           : find_axis(spec, table.per)->values) {
      out += "  --- " + table.per + ": " + value + " ---\n";
      print({{table.per, value}});
    }
    blocks = false;
  }
  return out;
}

}  // namespace dcpim::campaign
