// perfbench driver: times one campaign-spec workload in this process.
//
//   perfbench_driver --spec FILE --seed N [--seed N2 ...] [--setups K]
//                    [--min-runs R] [--seconds S]
//
// The spec must expand to exactly one cell; each `--seed` overrides its
// [traffic] seed and gives one draw of the cell. The driver runs the draws
// through harness::run_experiment() in turn, round after round, for about S
// seconds and at least R runs in all. Before each run it times K set-ups of
// that run's draw: parse + expand + a run of the cell with its horizon just
// before t = 0. A set-up builds the topology, hosts, generators and
// pre-scheduled flows, and executes no event, not even those due at t = 0.
// It prints one JSON object per line:
//
//   {"kind":"setup", ...}    one per set-up: parse, expand, total seconds,
//                            flows created, events executed (always 0)
//   {"kind":"run", ...}      one per experiment: seed, wall time, outcome
//                            digest, modelled metrics and execution counts
//   {"kind":"process", ...}  last: peak RSS and CPU time of this process
//
// The outcome digest hashes what the simulation concluded (slowdowns,
// goodput, drops, utilization, recovery, audit) and leaves out how it got
// there (events executed, end instant, packet-pool traffic), so a change
// that removes events without moving any result keeps its digest.
// `legacy` is the FNV-1a of harness::result_fingerprint(), which does
// include the execution counts.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/grid.h"
#include "campaign/spec.h"
#include "harness/experiment.h"
#include "harness/report.h"

namespace {

using namespace dcpim;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string spec;
  std::vector<std::uint64_t> seeds;
  int setups = 5;
  int min_runs = 1;
  double seconds = 10;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --spec FILE --seed N [--seed N2 ...] "
               "[--setups K] [--min-runs R] [--seconds S]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--spec") {
      a.spec = v;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seeds.push_back(std::strtoull(v, &end, 10));
      if (end == v || *end != '\0') usage("bad --seed");
    } else if (flag == "--setups") {
      a.setups = std::atoi(v);
    } else if (flag == "--min-runs") {
      a.min_runs = std::atoi(v);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.spec.empty()) usage("--spec is required");
  if (a.seeds.empty()) usage("--seed is required");
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot read " + path).c_str());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// %a hex-float: round-trips every double bit pattern.
void put(std::ostringstream& os, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << buf;
}

void put(std::ostringstream& os, const stats::SlowdownSummary& s) {
  os << s.count << ' ';
  put(os, s.mean);
  os << ' ';
  put(os, s.p50);
  os << ' ';
  put(os, s.p99);
  os << ' ';
  put(os, s.max);
  os << '\n';
}

/// Canonical text of a run's outcome fields; its FNV-1a is the digest.
std::string outcome_text(const harness::ExperimentResult& r) {
  std::ostringstream os;
  os << "overall ";
  put(os, r.overall);
  os << "short ";
  put(os, r.short_flows);
  for (const auto& b : r.buckets) {
    os << "bucket " << b.lo << ' ' << b.hi << ' ';
    put(os, b.slowdown);
  }
  os << "goodput ";
  put(os, r.goodput_ratio);
  os << " carried ";
  put(os, r.load_carried_ratio);
  os << "\nflows " << r.flows_total << ' ' << r.flows_done << " drops "
     << r.drops << ' ' << r.injected_drops << " trims " << r.trims << " pfc "
     << r.pfc_pauses << "\nutil " << r.util_bin;
  for (double u : r.util_series) {
    os << ' ';
    put(os, u);
  }
  const auto& f = r.recovery;
  os << "\nrecovery " << f.enabled << ' ' << f.fault_events << ' '
     << f.windows << ' ' << f.injected_drops << ' ' << f.recovery_actions
     << ' ' << f.flows_stalled << ' ' << f.fault_active << ' '
     << f.mean_recovery << ' ' << f.max_recovery << ' ';
  put(os, f.goodput_during_faults);
  os << ' ';
  put(os, f.goodput_after_faults);
  os << "\ngray " << f.gray_drops << ' ' << f.time_to_first_retransmit << ' '
     << f.degrade_active << ' ';
  put(os, f.goodput_during_degrade);
  for (const auto& g : f.srlg) {
    os << "\nsrlg " << g.name << ' ' << g.member_ports << ' ' << g.drops
       << ' ' << g.flows_stalled;
  }
  const auto& a = r.audit;
  os << "\naudit " << a.enabled << ' ' << a.sweeps << ' ' << a.checks << ' '
     << a.violations_total << '\n';
  for (const auto& p : a.probes) {
    os << "probe " << p.name << ' ' << p.checks << ' ' << p.violations
       << '\n';
  }
  return os.str();
}

/// Parses the spec, applies the seed and expands it to its single cell.
harness::ExperimentConfig load_cell(const std::string& text, const Args& a,
                                    std::uint64_t seed, double* parse_s,
                                    double* expand_s) {
  const Clock::time_point t0 = Clock::now();
  campaign::CampaignSpec spec = campaign::parse_campaign_spec(text, a.spec);
  *parse_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  spec.base["seed"] = std::to_string(seed);
  std::vector<campaign::Cell> cells = campaign::expand(spec);
  *expand_s = seconds_since(t1);
  if (cells.size() != 1) {
    std::fprintf(stderr, "perfbench_driver: %s expands to %zu cells, not 1\n",
                 a.spec.c_str(), cells.size());
    std::exit(2);
  }
  return cells.front().config;
}

void time_setup(const std::string& text, const Args& a, std::uint64_t seed) {
  double parse_s = 0;
  double expand_s = 0;
  const Clock::time_point t0 = Clock::now();
  harness::ExperimentConfig cfg =
      load_cell(text, a, seed, &parse_s, &expand_s);
  // Flows and protocol clocks start at t = 0, and Simulator::run executes
  // every event up to and including its horizon: stop one picosecond short.
  cfg.horizon = TimePoint{} - kPicosecond;
  const harness::ExperimentResult r = harness::run_experiment(cfg);
  const double setup_s = seconds_since(t0);
  std::printf(
      "{\"kind\":\"setup\",\"parse_s\":%.9g,\"expand_s\":%.9g,"
      "\"setup_s\":%.9g,\"flows\":%zu,\"events\":%llu}\n",
      parse_s, expand_s, setup_s, r.flows_total,
      static_cast<unsigned long long>(r.events_executed));
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const std::string text = read_file(a.spec);

  std::vector<harness::ExperimentConfig> cells;
  for (const std::uint64_t seed : a.seeds) {
    double parse_s = 0;
    double expand_s = 0;
    cells.push_back(load_cell(text, a, seed, &parse_s, &expand_s));
  }
  const Clock::time_point start = Clock::now();
  for (int run = 0;; ++run) {
    const double spent = seconds_since(start);
    // Start another run only while it is expected to end inside the budget.
    if (run >= a.min_runs && spent / run * (run + 1) > a.seconds) break;
    // Draws take turns, so the runs of each are spread over the whole
    // measurement, as are the set-ups: a burst of host noise cannot shift
    // all the runs of one draw, or all the set-ups, at once.
    const std::size_t draw = static_cast<std::size_t>(run) % cells.size();
    for (int k = 0; k < a.setups; ++k) time_setup(text, a, a.seeds[draw]);
    const Clock::time_point t0 = Clock::now();
    const harness::ExperimentResult r = harness::run_experiment(cells[draw]);
    const double wall_s = seconds_since(t0);
    const auto& f = r.recovery;
    std::printf(
        "{\"kind\":\"run\",\"seed\":%llu,\"wall_s\":%.9g,\"digest\":\"%016llx\","
        "\"legacy\":\"%016llx\",\"events\":%llu,\"pool_acquired\":%llu,"
        "\"pool_recycled\":%llu,\"flows_total\":%zu,\"flows_done\":%zu,"
        "\"short_p99\":%.17g,\"mean_slowdown\":%.17g,\"goodput_ratio\":%.17g,"
        "\"steady_util\":%.17g,\"trims\":%llu,"
        "\"injected_drops\":%llu,\"recovery_actions\":%llu,"
        "\"flows_stalled\":%llu,\"audit_sweeps\":%llu,\"audit_checks\":%llu,"
        "\"audit_violations\":%llu}\n",
        static_cast<unsigned long long>(a.seeds[draw]), wall_s,
        static_cast<unsigned long long>(campaign::fnv1a(outcome_text(r))),
        static_cast<unsigned long long>(
            campaign::fnv1a(harness::result_fingerprint(r))),
        static_cast<unsigned long long>(r.events_executed),
        static_cast<unsigned long long>(r.pool_acquired),
        static_cast<unsigned long long>(r.pool_recycled), r.flows_total,
        r.flows_done, r.short_flows.p99, r.overall.mean, r.goodput_ratio,
        // Fig 4c's steady-state window: every bin from the fifth on.
        r.mean_util(4, r.util_series.size()),
        static_cast<unsigned long long>(r.trims),
        static_cast<unsigned long long>(r.injected_drops),
        static_cast<unsigned long long>(f.recovery_actions),
        static_cast<unsigned long long>(f.flows_stalled),
        static_cast<unsigned long long>(r.audit.sweeps),
        static_cast<unsigned long long>(r.audit.checks),
        static_cast<unsigned long long>(r.audit.violations_total));
    std::fflush(stdout);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf(
      "{\"kind\":\"process\",\"peak_rss_mb\":%.6f,\"user_s\":%.6f,"
      "\"sys_s\":%.6f}\n",
      static_cast<double>(ru.ru_maxrss) / 1024.0,
      static_cast<double>(ru.ru_utime.tv_sec) +
          static_cast<double>(ru.ru_utime.tv_usec) / 1e6,
      static_cast<double>(ru.ru_stime.tv_sec) +
          static_cast<double>(ru.ru_stime.tv_usec) / 1e6);
  return 0;
}
