// Time representation for the dcPIM simulator.
//
// All simulation times are int64_t picoseconds. At the link rates the paper
// evaluates (10/100/400 Gbps) one byte serializes in an integral number of
// picoseconds (e.g. exactly 80 ps at 100 Gbps), so every serialization time
// is exact and simulations are bit-for-bit deterministic.
//
// Two distinct strong types (util/strong_int.h) keep the arithmetic honest:
//
//   Time       a signed span of simulated time (an RTT, a timeout, a pacing
//              interval). Full arithmetic: Time +/- Time, scalar scaling,
//              Time / Time (dimensionless ratio).
//   TimePoint  an instant on the simulation clock (Simulator::now(), flow
//              start/finish stamps). Ordinal only: TimePoint - TimePoint
//              yields a Time; TimePoint +/- Time shifts the instant;
//              TimePoint + TimePoint does not compile.
//
// Construct Times through the ps/ns/us/ms factories and TimePoints either
// from a Time offset from simulation start (`TimePoint(us(100))`) or by
// arithmetic on an existing instant. Raw integers convert only explicitly.
#pragma once

#include <cstdint>

#include "util/strong_int.h"
#include "util/units.h"

namespace dcpim {

/// Simulation duration, in picoseconds.
class Time : public StrongInt<Time> {
 public:
  using StrongInt<Time>::StrongInt;
  static constexpr const char* unit_suffix() { return "ps"; }
};

/// Instant on the simulation clock (picoseconds since simulation start).
class TimePoint : public StrongOrdinal<TimePoint> {
 public:
  using StrongOrdinal<TimePoint>::StrongOrdinal;
  /// The instant `since_start` after the simulation epoch (time zero).
  constexpr explicit TimePoint(Time since_start)
      // sa-ok(unit-raw): epoch-offset construction is the defining conversion
      : StrongOrdinal<TimePoint>(since_start.raw()) {}
  static constexpr const char* unit_suffix() { return "ps"; }

  /// Offset from simulation start (inverse of the Time constructor).
  constexpr Time since_start() const {
    return Time{v_};
  }
};

constexpr TimePoint operator+(TimePoint t, Time d) {
  return TimePoint{t.raw() + d.raw()};  // sa-ok(unit-raw): instant shifted by span
}
constexpr TimePoint operator+(Time d, TimePoint t) { return t + d; }
constexpr TimePoint operator-(TimePoint t, Time d) {
  return TimePoint{t.raw() - d.raw()};  // sa-ok(unit-raw): instant shifted by span
}
constexpr Time operator-(TimePoint a, TimePoint b) {
  return Time{a.raw() - b.raw()};  // sa-ok(unit-raw): span between instants
}
constexpr TimePoint& operator+=(TimePoint& t, Time d) { return t = t + d; }

inline constexpr Time kPicosecond{1};
inline constexpr Time kNanosecond{1'000};
inline constexpr Time kMicrosecond{1'000'000};
inline constexpr Time kMillisecond{1'000'000'000};
inline constexpr Time kSecond{1'000'000'000'000};

/// Largest representable duration; used as "run forever" sentinel.
inline constexpr Time kTimeInfinity = Time::max();
/// Farthest representable instant (the run-forever horizon).
inline constexpr TimePoint kTimePointInfinity = TimePoint::max();
/// Sentinel for "instant not recorded yet" (e.g. unfinished flows).
inline constexpr TimePoint kTimeUnset{-1};

constexpr Time ps(double v) { return kPicosecond * v; }
constexpr Time ns(double v) { return kNanosecond * v; }
constexpr Time us(double v) { return kMicrosecond * v; }
constexpr Time ms(double v) { return kMillisecond * v; }

// sa-ok(unit-raw): the to_* helpers are the sanctioned double conversion boundary.
constexpr double to_ns(Time t) { return static_cast<double>(t.raw()) / 1e3; }
constexpr double to_us(Time t) { return static_cast<double>(t.raw()) / 1e6; }
constexpr double to_ms(Time t) { return static_cast<double>(t.raw()) / 1e9; }
constexpr double to_sec(Time t) { return static_cast<double>(t.raw()) / 1e12; }
constexpr double to_us(TimePoint t) { return to_us(t.since_start()); }

/// Serialization delay of `bytes` on a link of `rate`.
/// Exact when the byte time divides evenly (all rates used here).
constexpr Time serialization_time(Bytes bytes, BitsPerSec rate) {
  // bytes * 8 bits * 1e12 ps/s / rate. Multiply first in 128-bit to avoid
  // overflow for multi-megabyte messages.
  // sa-ok(unit-raw): mixed-unit kernel; the strong signature above is the checked
  // boundary.
  return Time{static_cast<std::int64_t>(
      (static_cast<__int128>(bytes.raw()) * 8 * kSecond.raw()) / rate.raw())};
}

/// Serialization time of one byte at `rate` when serialization_time(b,
/// rate) is exactly `b` times it for every `b`: when `rate` divides the
/// 8e12 bps at which a byte takes one picosecond. Time{} otherwise.
constexpr Time exact_byte_time(BitsPerSec rate) {
  constexpr BitsPerSec kBytePerPs{8 * (kSecond / kPicosecond)};
  return rate > BitsPerSec{} && kBytePerPs % rate == BitsPerSec{}
             ? serialization_time(Bytes{1}, rate)
             : Time{};
}

/// Bytes transmittable in `t` at `rate` (floor).
constexpr Bytes bytes_in(Time t, BitsPerSec rate) {
  // sa-ok(unit-raw): mixed-unit kernel; the strong signature above is the checked
  // boundary.
  return Bytes{static_cast<std::int64_t>(
      (static_cast<__int128>(t.raw()) * rate.raw()) / (8 * kSecond.raw()))};
}

// The wrappers must stay bit-identical to their representation — the event
// queue and packet structs hold them by value on the hot path.
static_assert(sizeof(Time) == sizeof(std::int64_t));
static_assert(sizeof(TimePoint) == sizeof(std::int64_t));
static_assert(sizeof(Bytes) == sizeof(std::int64_t));
static_assert(sizeof(BitsPerSec) == sizeof(std::int64_t));
static_assert(sizeof(PacketCount) == sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<Time> &&
              std::is_trivially_copyable_v<TimePoint>);

// Exactness invariants the simulator's determinism rests on (§2/§4 setup):
// one byte is a whole number of picoseconds at every evaluated rate.
static_assert(serialization_time(Bytes{1}, gbps(10)) == ps(800));
static_assert(serialization_time(Bytes{1}, gbps(100)) == ps(80));
static_assert(serialization_time(Bytes{1}, gbps(400)) == ps(20));
static_assert(bytes_in(us(1), gbps(100)) == Bytes{12'500});
static_assert(exact_byte_time(gbps(400)) == ps(20));
static_assert(exact_byte_time(gbps(100) * 0.3) == Time{});

}  // namespace dcpim
