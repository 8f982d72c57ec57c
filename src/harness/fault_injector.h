// FaultInjector: executes a sim::fault::FaultPlan against a live Network.
//
// The injector is the bridge between the pure-data FaultPlan layer
// (src/sim/fault) and a concrete topology: it resolves target names and
// wildcards to devices/ports (wildcards via its own seeded fault RNG, so a
// plan resolves identically on every run and under any `--jobs`), expands
// `rand:` bursts, schedules each fault's start/stop as ordinary simulator
// events, and installs the Network fault filter for targeted packet-kind
// drops. After the run it distills the recovery metrics (RecoveryStats)
// that ExperimentResult and the CSV report surface. DESIGN.md §11.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/fault/fault_plan.h"
#include "util/rng.h"

namespace dcpim::harness {

class FaultInjector {
 public:
  struct Options {
    /// Seed of the injector's private RNG (wildcard resolution, burst
    /// expansion). Disjoint from the workload RNG and from the per-port
    /// fault streams.
    std::uint64_t seed = 1;
    /// Bounds applied when expanding `rand:` bursts.
    sim::fault::RandomFaultOptions random;
  };

  FaultInjector(net::Network& net, sim::fault::FaultPlan plan, Options opts);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Resolves targets, expands bursts, and schedules every fault event.
  /// Call exactly once, before Network::sim().run(). Throws
  /// std::invalid_argument if a target matches no device/port.
  void install();

  /// The concrete (post-expansion) plan; meaningful after install().
  const sim::fault::FaultPlan& plan() const { return plan_; }
  std::size_t installed_events() const { return plan_.events.size(); }
  /// Fault windows sorted by start; meaningful after install().
  const std::vector<sim::fault::FaultWindow>& windows() const {
    return windows_;
  }

  /// Distills the recovery metrics. Valid once the simulation has run;
  /// `capacity_bps` is the aggregate receiver capacity the goodput
  /// fractions are normalized by (same denominator as the util series).
  sim::fault::RecoveryStats recovery(double capacity_bps) const;

 private:
  /// An active targeted-drop window consulted by the Network fault filter.
  struct TargetRule {
    TimePoint start{};
    TimePoint end{};
    int kind = -1;  ///< packet kind to match; kAnyKind/kControl/kDataOnly
    double rate = 1.0;
  };
  static constexpr int kAnyKind = -2;
  static constexpr int kControlOnly = -3;
  static constexpr int kDataOnly = -4;

  /// A resolved shared-risk group: the concrete ports the group took down
  /// and the window it owned them, accumulated into per-group attribution
  /// by the drop observer.
  struct SrlgGroup {
    std::string name;
    TimePoint start{};
    TimePoint end{};
    std::vector<const net::Port*> ports;
    std::uint64_t drops = 0;
  };

  void install_event(const sim::fault::FaultEvent& ev);
  void install_flap(const sim::fault::FaultEvent& ev);
  void install_loss(const sim::fault::FaultEvent& ev);
  void install_stall(const sim::fault::FaultEvent& ev);
  void install_targeted(const sim::fault::FaultEvent& ev);
  void install_gray(const sim::fault::FaultEvent& ev);
  void install_degrade(const sim::fault::FaultEvent& ev);
  void install_srlg(const sim::fault::FaultEvent& ev);
  /// Observers for gray-failure attribution (gray drop counting, first
  /// retransmit timing, per-SRLG drop attribution, degrade-window goodput).
  void install_gray_observers();
  bool targeted_drop(const net::Packet& p, net::Port& port) const;

  /// Devices whose name matches `pattern` (exact, or prefix wildcard
  /// `leaf*` / bare `*`). Throws if none match.
  std::vector<net::Device*> match_devices(const std::string& pattern) const;
  /// One device for `pattern`: the match for exact names, an RNG pick for
  /// wildcards.
  net::Device* pick_device(const std::string& pattern);
  /// The ports an event touches on `dev` (exact port, all, or RNG pick).
  std::vector<net::Port*> pick_ports(net::Device& dev,
                                     const sim::fault::FaultEvent& ev,
                                     bool wildcard_target);

  bool in_fault_window(TimePoint at) const;
  bool in_degrade_window(TimePoint at) const;

  net::Network& net_;
  sim::fault::FaultPlan plan_;
  Options opts_;
  Rng rng_;
  bool installed_ = false;
  std::vector<sim::fault::FaultWindow> windows_;
  std::vector<TargetRule> rules_;
  TimePoint last_window_end_{};
  Bytes bytes_during_{};  ///< payload delivered inside fault windows
  Bytes bytes_after_{};   ///< payload delivered after the last window

  // --- gray-failure attribution state (see install_gray_observers) ----------
  std::vector<sim::fault::FaultWindow> degrade_windows_;  ///< sorted by start
  Bytes bytes_during_degrade_{};
  std::vector<SrlgGroup> srlg_groups_;
  std::uint64_t gray_drops_ = 0;
  /// Silently-dropped data packets awaiting their retransmit: (flow, seq)
  /// key -> drop instant. The first re-injection of any such pair closes
  /// the measurement (a single tracked packet would be fragile: a gray-
  /// dropped *duplicate* is never re-sent). Cleared once measured.
  std::map<std::uint64_t, TimePoint> gray_pending_;
  bool first_retransmit_seen_ = false;
  Time time_to_first_retransmit_{};
};

/// True if `pattern` is a wildcard (`*` suffix or bare `*`).
bool is_wildcard_target(const std::string& pattern);

}  // namespace dcpim::harness
