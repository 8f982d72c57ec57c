// The flags bench/campaign and bench/theorem1_matching share.
// DCPIM_BENCH_SCALE (default 1.0; must be finite and > 0) stretches the
// simulated horizons of specs with `[timing] scaled = true` and
// theorem1_matching's trial count.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/sweep.h"

namespace dcpim::bench {

/// The shared flags (see parse_common_flags).
struct CommonFlags {
  bool audit = false;
  std::string faults;  ///< FaultPlan spec (sim/fault/fault_plan.h); "" = none
  std::uint64_t fault_seed = 1;
  /// Worker threads; results are bit-identical at every value (the
  /// isolation contract of harness/sweep.h).
  int jobs = 1;
};

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

/// Parses the shared flags and REMOVES them from argv (compacting; argc is
/// updated) so a binary's own flag parser never sees them.
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
/// $DCPIM_JOBS sets the --jobs default. Unknown arguments are left alone
/// for the binary to interpret. A DCPIM_BENCH_SCALE that is not a finite
/// number > 0, or a --jobs, $DCPIM_JOBS or --fault-seed that is not a whole
/// number, prints one line and exits 2 instead of running with a silently
/// substituted value.
inline CommonFlags parse_common_flags(int& argc, char** argv) {
  CommonFlags flags;
  if (const char* text = std::getenv("DCPIM_BENCH_SCALE")) {
    const char* name = "DCPIM_BENCH_SCALE";
    const char* want = "a finite number > 0";
    const double scale = parse_or_exit<double>(name, text, want);
    if (!(std::isfinite(scale) && scale > 0.0)) reject_value(name, text, want);
  }
  const auto set_jobs = [&flags](const char* name, const char* text) {
    const int n = parse_or_exit<int>(name, text, kWholeNumber);
    if (n < 0) reject_value(name, text, kWholeNumber);
    flags.jobs = n == 0 ? harness::hardware_threads() : n;
  };
  if (const char* text = std::getenv("DCPIM_JOBS")) {
    set_jobs("DCPIM_JOBS", text);
  }
  const auto set_fault_seed = [&flags](const char* text) {
    flags.fault_seed =
        parse_or_exit<std::uint64_t>("--fault-seed", text, kWholeNumber);
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--audit") {
      flags.audit = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      set_jobs("--jobs", argv[++i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      set_jobs("--jobs", arg.c_str() + 7);
    } else if (arg == "--faults" && i + 1 < argc) {
      flags.faults = argv[++i];
    } else if (arg.rfind("--faults=", 0) == 0) {
      flags.faults = arg.substr(9);
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
  return flags;
}

}  // namespace dcpim::bench
