#include "util/check.h"

#include <cstdio>
#include <cstdlib>

namespace dcpim::check_detail {

SimTimeSource& sim_time_source() {
  // sa-ok(static-local): thread_local — each thread registers the simulator it is
  // currently driving; parallel sweeps never share a Simulator across
  // threads, so the slots are independent by construction. Under the
  // -Wthread-safety contract (DESIGN.md §12) thread_local is its own
  // capability: no cross-thread access exists to guard.
  static thread_local SimTimeSource source;
  return source;
}

[[noreturn]] void check_fail(const char* expr, const char* msg,
                             const char* values, const char* file, int line) {
  const SimTimeSource& src = sim_time_source();
  std::fprintf(stderr, "DCPIM_CHECK failed: %s", expr);
  if (values != nullptr) std::fprintf(stderr, " (%s)", values);
  if (msg != nullptr && msg[0] != '\0') std::fprintf(stderr, ": %s", msg);
  if (src.fn != nullptr) {
    const auto t = src.fn(src.ctx);
    std::fprintf(stderr, " at sim time %lld ps (%.3f us)",
                 static_cast<long long>(t),
                 static_cast<double>(t) / 1e6);
  }
  std::fprintf(stderr, " [%s:%d]\n", file, line);
  std::fflush(stderr);
  std::abort();
}

}  // namespace dcpim::check_detail
