// Shared helpers for the per-figure bench binaries.
//
// Each figure binary reproduces one table/figure of the paper. Its scenario
// is a committed spec, tests/campaign_specs/<name>.campaign, which
// run_spec() reads, expands and runs (writing CSV rows when
// $DCPIM_BENCH_CSV is set); the binary only renders the results, quoting
// the paper's published value next to the measured one, and ends with the
// same `cell` fingerprint lines `bench/campaign --spec` prints.
// DCPIM_BENCH_SCALE (default 1.0; must be finite and > 0) stretches the
// simulated horizons of specs with `[timing] scaled = true`.
#pragma once

#include <charconv>
#include <chrono>  // wall-clock ETA only; sim code never reads real time
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "util/env.h"

#ifndef DCPIM_CAMPAIGN_SPEC_DIR
#error "build must define DCPIM_CAMPAIGN_SPEC_DIR"
#endif

namespace dcpim::bench {

inline Time scaled(Time t) { return t * dcpim::bench_scale(); }

/// Process-wide bench flags, set once by parse_common_flags() in main().
inline bool& audit_flag() {
  static bool enabled = false;
  return enabled;
}

/// FaultPlan spec applied to every experiment the binary runs (--faults;
/// empty = none). Grammar in sim/fault/fault_plan.h.
inline std::string& faults_flag() {
  static std::string spec;
  return spec;
}

/// Seed for wildcard/burst resolution in the FaultPlan (--fault-seed).
inline std::uint64_t& fault_seed_flag() {
  static std::uint64_t seed = 1;
  return seed;
}

/// Worker threads for experiment sweeps (--jobs N / $DCPIM_JOBS; default 1
/// == serial). Results are bit-identical at every value — see
/// harness/sweep.h for the isolation contract that guarantees it.
inline int& jobs_flag() {
  static int jobs = 1;
  return jobs;
}

/// Prints `<name>=<text>: must be <want>` and exits 2, the usage-error code
/// of every bench binary.
[[noreturn]] inline void reject_value(const char* name, const char* text,
                                      const char* want) {
  std::fprintf(stderr, "%s=%s: must be %s\n", name, text, want);
  std::exit(2);
}

/// Strict parse of a numeric flag or environment knob: the whole of `text`
/// must be one T (no sign on unsigned types, no leading blanks, no
/// trailing junk, in range), else reject_value().
template <typename T>
T parse_or_exit(const char* name, const char* text, const char* want) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) reject_value(name, text, want);
  return value;
}

inline constexpr const char* kWholeNumber = "a whole number";

/// Parses the flags every figure binary shares and REMOVES them from argv
/// (compacting; argc is updated) so a binary's own flag parser never sees
/// them.
///   --audit     attach the invariant auditor (sim/audit.h) to every
///               experiment the binary runs and print its summary.
///   --jobs N    run experiment sweeps on N worker threads (also
///               --jobs=N; 0 = all hardware threads). Output stays
///               byte-identical to --jobs 1; progress/ETA goes to stderr.
///   --faults S  execute FaultPlan spec S (also --faults=S; grammar in
///               sim/fault/fault_plan.h) in every experiment and print the
///               recovery metrics. Deterministic: stdout stays
///               byte-identical across --jobs values.
///   --fault-seed N   seed for wildcard/`rand:` resolution (default 1;
///               also --fault-seed=N).
/// Unknown arguments are left alone for the binary to interpret. A
/// DCPIM_BENCH_SCALE that is not a finite number > 0, or a --jobs,
/// $DCPIM_JOBS or --fault-seed that is not a whole number, prints one line
/// and exits 2 instead of running with a silently substituted value.
inline void parse_common_flags(int& argc, char** argv) {
  if (const char* text = std::getenv("DCPIM_BENCH_SCALE")) {
    const char* name = "DCPIM_BENCH_SCALE";
    const char* want = "a finite number > 0";
    const double scale = parse_or_exit<double>(name, text, want);
    if (!(std::isfinite(scale) && scale > 0.0)) reject_value(name, text, want);
  }
  const auto set_jobs = [](const char* name, const char* text) {
    const int n = parse_or_exit<int>(name, text, kWholeNumber);
    if (n < 0) reject_value(name, text, kWholeNumber);
    jobs_flag() = n == 0 ? harness::hardware_threads() : n;
  };
  if (const char* text = std::getenv("DCPIM_JOBS")) {
    set_jobs("DCPIM_JOBS", text);
  }
  const auto set_fault_seed = [](const char* text) {
    fault_seed_flag() =
        parse_or_exit<std::uint64_t>("--fault-seed", text, kWholeNumber);
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--audit") {
      audit_flag() = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      set_jobs("--jobs", argv[++i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      set_jobs("--jobs", arg.c_str() + 7);
    } else if (arg == "--faults" && i + 1 < argc) {
      faults_flag() = argv[++i];
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_flag() = arg.substr(9);
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      set_fault_seed(argv[++i]);
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      set_fault_seed(arg.c_str() + 13);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

/// Progress/ETA line for a sweep, written to stderr only — stdout must stay
/// byte-identical between --jobs 1 and --jobs N runs.
class SweepProgress {
 public:
  explicit SweepProgress(const char* label)
      : label_(label), start_(std::chrono::steady_clock::now()) {}

  void operator()(std::size_t done, std::size_t total) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double eta =
        done > 0 ? elapsed * static_cast<double>(total - done) /
                       static_cast<double>(done)
                 : 0.0;
    std::fprintf(stderr, "\r  [%zu/%zu] %s  jobs=%d  %.1fs elapsed, eta %.1fs ",
                 done, total, label_, jobs_flag(), elapsed, eta);
    if (done == total) std::fputc('\n', stderr);
    std::fflush(stderr);
  }

 private:
  const char* label_;
  std::chrono::steady_clock::time_point start_;
};

inline void print_header(const char* title, const char* paper_note) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n", paper_note);
  std::printf("(DCPIM_BENCH_SCALE=%.2f; see EXPERIMENTS.md for method)\n\n",
              dcpim::bench_scale());
}

/// Bucket label like "<18K", "18K-73K", ">4.7M".
inline std::string bucket_label(Bytes lo, Bytes hi) {
  auto human = [](Bytes b) {
    char buf[32];
    if (b >= kMB) {
      std::snprintf(buf, sizeof(buf), "%.1fM", to_mb(b));
    } else {
      std::snprintf(buf, sizeof(buf), "%lldK",
                    static_cast<long long>(b / kKB));
    }
    return std::string(buf);
  };
  if (lo == Bytes{}) return "<" + human(hi);
  if (hi == Bytes{}) return ">" + human(lo);
  return human(lo) + "-" + human(hi);
}

/// Prints the audit verdict under a result row when --audit is active.
inline void maybe_print_audit(const harness::ExperimentResult& result) {
  if (!result.audit.enabled) return;
  std::printf("    %s\n", harness::format_audit_summary(result.audit).c_str());
}

/// Prints the fault-recovery metrics under a result row when --faults is
/// active. Deterministic output (simulated quantities only), so it is safe
/// for the byte-identical stdout contract across --jobs values.
inline void maybe_print_faults(const harness::ExperimentResult& result) {
  if (!result.recovery.enabled) return;
  std::printf("    %s\n",
              harness::format_recovery_stats(result.recovery).c_str());
}

/// Reads a campaign spec file whole. An unreadable file prints one line and
/// exits 2 (the spec/usage-error code of every bench binary).
inline std::string read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read spec '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A committed spec expanded and executed. Cells are in expansion order
/// (grid.h), results parallel.
struct SpecRun {
  campaign::CampaignSpec spec;
  std::vector<campaign::Cell> cells;
  std::vector<harness::ExperimentResult> results;
};

/// Reads tests/campaign_specs/<name>.campaign (the binary's only copy of
/// its scenario), folds the shared bench flags (--audit/--faults/
/// --fault-seed) into it exactly like bench/campaign does, expands, and
/// runs the grid on jobs_flag() workers with a progress line on stderr.
/// With $DCPIM_BENCH_CSV set, appends one row per cell to
/// <dir>/<spec name>.csv. A CampaignError prints its one-line diagnostic
/// and exits 2.
inline SpecRun run_spec(const std::string& name) {
  const std::string path =
      std::string(DCPIM_CAMPAIGN_SPEC_DIR) + "/" + name + ".campaign";
  SpecRun run;
  try {
    run.spec = campaign::parse_campaign_spec(read_spec_file(path), path);
    campaign::apply_overrides(run.spec, audit_flag(), faults_flag(),
                              fault_seed_flag());
    run.cells = campaign::expand(run.spec);
  } catch (const campaign::CampaignError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  std::vector<harness::ExperimentConfig> configs;
  configs.reserve(run.cells.size());
  for (const campaign::Cell& cell : run.cells) configs.push_back(cell.config);
  harness::SweepOptions opts;
  opts.jobs = jobs_flag();
  auto progress = std::make_shared<SweepProgress>(run.spec.name.c_str());
  opts.progress = [progress](std::size_t done, std::size_t total) {
    (*progress)(done, total);
  };
  run.results = harness::run_sweep(configs, opts);

  const std::string csv_dir = harness::csv_dir_from_env();
  if (!csv_dir.empty()) {
    std::vector<harness::ReportRow> rows;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
      rows.push_back(harness::report_row(run.spec.name, run.cells[i].config,
                                         run.results[i]));
    }
    harness::append_csv(csv_dir, rows);
  }
  return run;
}

/// The shared per-cell fingerprint block. Byte-identical to the cell lines
/// `bench/campaign --spec <this spec>` prints, which is the cross-check
/// contract between the figure binaries and the campaign runner.
inline void print_cell_lines(const SpecRun& run) {
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const std::uint64_t fnv =
        campaign::fnv1a(harness::result_fingerprint(run.results[i]));
    std::printf("%s\n",
                campaign::format_cell_line(i, run.cells[i].label, fnv).c_str());
  }
}

/// A table over the cells first, first + stride, ... of a run.
using CellTable = void (*)(const SpecRun& run, std::size_t first,
                           std::size_t stride);

/// Mean and p99 slowdown per flow-size bucket (Figures 3(c)-(e) and 7): a
/// row pair per cell, each followed by its audit and recovery blocks. The
/// bucket header comes from the first cell's result.
inline void print_bucket_table(const SpecRun& run, std::size_t first,
                               std::size_t stride) {
  std::printf("  %-12s %6s", "protocol", "");
  for (const auto& b : run.results[first].buckets) {
    std::printf(" %13s", bucket_label(b.lo, b.hi).c_str());
  }
  std::printf("\n");
  for (std::size_t i = first; i < run.cells.size(); i += stride) {
    const harness::ExperimentResult& res = run.results[i];
    const auto row = [&res](const char* name, const char* metric,
                            double stats::SlowdownSummary::*field) {
      std::printf("  %-12s %6s", name, metric);
      for (const auto& b : res.buckets) {
        if (b.slowdown.count == 0) {
          std::printf(" %13s", "-");
        } else {
          std::printf(" %13.2f", b.slowdown.*field);
        }
      }
      std::printf("\n");
    };
    row(harness::to_string(run.cells[i].config.protocol), "mean",
        &stats::SlowdownSummary::mean);
    row("", "p99", &stats::SlowdownSummary::p99);
    maybe_print_audit(res);
    maybe_print_faults(res);
    std::fflush(stdout);
  }
}

/// Overall and short-flow slowdowns plus the carried load ratio, a row per
/// cell (Figure 5), each followed by its audit and recovery blocks.
inline void print_slowdown_table(const SpecRun& run, std::size_t first,
                                 std::size_t stride) {
  std::printf("  %-12s %10s %10s | %12s %12s | %8s\n", "protocol",
              "mean(all)", "p99(all)", "short mean", "short p99", "carried");
  for (std::size_t i = first; i < run.cells.size(); i += stride) {
    const harness::ExperimentResult& res = run.results[i];
    std::printf("  %-12s %10.2f %10.2f | %12.2f %12.2f | %8.3f\n",
                harness::to_string(run.cells[i].config.protocol),
                res.overall.mean, res.overall.p99, res.short_flows.mean,
                res.short_flows.p99, res.load_carried_ratio);
    maybe_print_audit(res);
    maybe_print_faults(res);
    std::fflush(stdout);
  }
}

/// Prints `table` once per workload of a protocol x workload grid (the
/// fig3b.campaign shape: protocol axis first, workload axis second), under
/// a `--- workload: W ---` banner.
inline void print_per_workload(const SpecRun& run, CellTable table) {
  const std::vector<std::string>& workloads = run.spec.axes[1].values;
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    std::printf("--- workload: %s ---\n", workloads[wi].c_str());
    table(run, wi, workloads.size());
    std::printf("\n");
  }
}

}  // namespace dcpim::bench
