// Environment-variable knobs for benches and tests.
//
// Benches read DCPIM_BENCH_SCALE (a multiplier on simulated horizon / flow
// counts) so long paper-scale runs can be reproduced on demand without
// making the default `ctest` / bench sweep take hours.
#pragma once

#include <cstdlib>

namespace dcpim {

inline double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    char* end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end != v) return parsed;
  }
  return fallback;
}

/// Global scale factor applied by bench binaries to simulated horizons.
inline double bench_scale() { return env_double("DCPIM_BENCH_SCALE", 1.0); }

}  // namespace dcpim
