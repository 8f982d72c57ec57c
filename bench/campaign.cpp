// Campaign driver: run a declarative experiment-campaign spec end to end.
//
//   campaign --spec tests/campaign_specs/fig3a.campaign [--jobs N]
//            [--journal PATH|none] [--csv DIR] [--max-cells N]
//            [--list-cells] [--print-spec] [--audit] [--faults S]
//
// The spec (grammar: src/campaign/spec.h) expands into a Cartesian grid of
// cells that run on harness::run_sweep. Completed cells land in a journal
// keyed by cell fingerprint (src/campaign/journal.h), so an interrupted
// campaign resumes without recomputation and an edited spec re-executes
// only the cells whose canonical text changed. stdout is one deterministic
// block — header plus `cell NNN <label> result=<fnv>` lines in submission
// order, then the spec's [report] tables when it has one — byte-identical
// across --jobs values and across kill/resume splits; progress and
// summaries go to stderr. Every paper figure is a spec under
// tests/campaign_specs/ that this driver runs and prints.
//
// Exit codes: 0 campaign complete, 2 spec/usage error, 3 incomplete (some
// cells skipped by --max-cells — rerun to continue from the journal).
#include <chrono>  // wall-clock ETA only; sim code never reads real time
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/spec.h"

using namespace dcpim;

namespace {

/// Reads a campaign spec file whole. An unreadable file prints one line and
/// exits 2 (the spec/usage-error code).
std::string read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read spec '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --spec FILE [--jobs N] [--journal PATH|none] [--csv DIR]\n"
      "          [--max-cells N] [--list-cells] [--print-spec]\n"
      "          [--audit] [--faults SPEC] [--fault-seed N]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CommonFlags flags = bench::parse_common_flags(argc, argv);

  std::string spec_path;
  std::string journal_arg;  // empty = default (<spec>.journal), "none" = off
  std::string csv_dir;
  std::size_t max_cells = 0;
  bool list_cells = false;
  bool print_spec = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--spec") {
      spec_path = value("--spec");
    } else if (arg.rfind("--spec=", 0) == 0) {
      spec_path = arg.substr(7);
    } else if (arg == "--journal") {
      journal_arg = value("--journal");
    } else if (arg.rfind("--journal=", 0) == 0) {
      journal_arg = arg.substr(10);
    } else if (arg == "--csv") {
      csv_dir = value("--csv");
    } else if (arg.rfind("--csv=", 0) == 0) {
      csv_dir = arg.substr(6);
    } else if (arg == "--max-cells") {
      max_cells = bench::parse_or_exit<std::size_t>(
          "--max-cells", value("--max-cells").c_str(), bench::kWholeNumber);
    } else if (arg.rfind("--max-cells=", 0) == 0) {
      max_cells = bench::parse_or_exit<std::size_t>(
          "--max-cells", arg.c_str() + 12, bench::kWholeNumber);
    } else if (arg == "--list-cells") {
      list_cells = true;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (spec_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  const std::string text = read_spec_file(spec_path);

  try {
    campaign::CampaignSpec spec =
        campaign::parse_campaign_spec(text, spec_path);
    campaign::apply_overrides(spec, flags.audit, flags.faults,
                              flags.fault_seed);

    if (print_spec) {
      std::fputs(campaign::to_spec(spec).c_str(), stdout);
      return 0;
    }
    if (list_cells) {
      // `cell <16-hex fp> <label>` — what tools/campaign_diff.py consumes.
      for (const campaign::Cell& cell : campaign::expand(spec)) {
        std::printf("cell %016llx %s\n",
                    static_cast<unsigned long long>(cell.fingerprint),
                    cell.label.c_str());
      }
      return 0;
    }

    campaign::CampaignOptions options;
    options.jobs = flags.jobs;
    options.max_cells = max_cells;
    if (journal_arg.empty()) {
      options.journal_path = spec_path + ".journal";
    } else if (journal_arg != "none") {
      options.journal_path = journal_arg;
    }
    // Progress/ETA on stderr only: stdout stays byte-identical across
    // --jobs values.
    const auto start = std::chrono::steady_clock::now();
    options.progress = [start, &flags](std::size_t done, std::size_t total) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      const double eta =
          done > 0 ? elapsed * static_cast<double>(total - done) /
                         static_cast<double>(done)
                   : 0.0;
      std::fprintf(stderr,
                   "\r  [%zu/%zu] campaign  jobs=%d  %.1fs elapsed, eta %.1fs ",
                   done, total, flags.jobs, elapsed, eta);
      if (done == total) std::fputc('\n', stderr);
      std::fflush(stderr);
    };

    const campaign::CampaignReport report =
        campaign::run_campaign(spec, options);

    std::printf("=== campaign %s ===\n", report.name.c_str());
    std::printf("cells: %zu\n", report.outcomes.size());
    for (const campaign::CellOutcome& out : report.outcomes) {
      if (out.skipped) continue;
      std::printf("%s\n",
                  campaign::format_cell_line(out.index, out.label,
                                             out.result_fnv)
                      .c_str());
    }
    std::fputs(campaign::render_report(spec, report).c_str(), stdout);
    std::fflush(stdout);

    std::fprintf(stderr,
                 "campaign %s: %zu cached, %zu executed, %zu skipped%s%s\n",
                 report.name.c_str(), report.cached, report.executed,
                 report.skipped,
                 options.journal_path.empty() ? "" : ", journal ",
                 options.journal_path.c_str());
    if (report.complete() && !csv_dir.empty()) {
      if (campaign::write_merged_csv(csv_dir, report)) {
        std::fprintf(stderr, "merged CSV: %s/%s.csv\n", csv_dir.c_str(),
                     report.name.c_str());
      }
    }
    if (!report.complete()) {
      std::fprintf(stderr,
                   "campaign incomplete (--max-cells); rerun to resume from "
                   "the journal\n");
      return 3;
    }
    return 0;
  } catch (const campaign::CampaignError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
