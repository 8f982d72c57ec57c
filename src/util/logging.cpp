#include "util/logging.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdarg>
#include <cstdlib>

namespace dcpim {
namespace {

// Atomic: worker threads of a parallel sweep (harness/sweep.h)
// read the level on every LOG_* macro while the main thread may still be
// applying a command-line override. Relaxed ordering suffices — the level
// gates diagnostics only and never synchronizes data. Under the
// -Wthread-safety contract (DESIGN.md §12) the std::atomic IS the
// capability: there is no lock to annotate, and every access goes through
// load/store below, so the analysis has nothing unguarded to flag.
std::atomic<LogLevel> g_level = [] {
  if (const char* env = std::getenv("DCPIM_LOG")) {
    return parse_log_level(env);
  }
  return LogLevel::Warn;
}();

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }
void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel parse_log_level(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "trace") return LogLevel::Trace;
  if (lower == "debug") return LogLevel::Debug;
  if (lower == "info") return LogLevel::Info;
  if (lower == "warn") return LogLevel::Warn;
  if (lower == "error") return LogLevel::Error;
  if (lower == "off") return LogLevel::Off;
  return LogLevel::Warn;
}

namespace detail {

void vlog(LogLevel level, const char* fmt, ...) {
  std::fprintf(stderr, "[%s] ", level_name(level));
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace detail
}  // namespace dcpim
