#include "campaign/runner.h"

#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "campaign/journal.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "sim/fault/fault_plan.h"

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
    if (hit != journal.end()) {
      out.cached = true;
      out.result_fnv = hit->second.result_fnv;
      out.csv_row = hit->second.csv_row;
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
    harness::ReportRow row;
    row.experiment = spec.name;
    row.protocol = harness::to_string(cell.config.protocol);
    row.workload = cell.config.workload;
    row.load = cell.config.load;
    row.result = result;
    JournalEntry entry;
    entry.cell_fp = cell.fingerprint;
    entry.result_fnv = fnv1a(harness::result_fingerprint(result));
    entry.csv_row = harness::to_csv_row(row);
    writer->append(entry);
  };

  const std::vector<harness::ExperimentResult> results =
      harness::run_sweep(configs, sweep);

  for (std::size_t r = 0; r < to_run.size(); ++r) {
    const Cell& cell = cells[to_run[r]];
    CellOutcome& out = report.outcomes[cell.index];
    harness::ReportRow row;
    row.experiment = spec.name;
    row.protocol = harness::to_string(cell.config.protocol);
    row.workload = cell.config.workload;
    row.load = cell.config.load;
    row.result = results[r];
    out.executed = true;
    out.result_fnv = fnv1a(harness::result_fingerprint(results[r]));
    out.csv_row = harness::to_csv_row(row);
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

}  // namespace dcpim::campaign
