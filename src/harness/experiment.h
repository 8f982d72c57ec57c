// Experiment harness: one call from scenario description to measured
// results. Benches (one per paper figure/table) and integration tests are
// thin wrappers around run_experiment().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dcpim_config.h"
#include "net/config.h"
#include "sim/audit.h"
#include "sim/fault/fault_plan.h"
#include "stats/metrics.h"
#include "util/time.h"
#include "util/units.h"

namespace dcpim::harness {

enum class Protocol {
  Dcpim,
  Phost,
  Homa,
  HomaAeolus,
  Ndp,
  Hpcc,
  Dctcp,
  Tcp,
  Fastpass,  ///< centralized-arbiter baseline (survivability campaigns)
};
enum class TopoKind {
  LeafSpine,       ///< Table 1: 9 racks x 16 hosts, 4 spines, 100G/400G
  Oversubscribed,  ///< same, spine links halved (2:1)
  FatTree,         ///< three-tier, k^3/4 hosts, uniform 100G
  Testbed,         ///< Figure 7: 32 hosts, 10G, two-tier
};
enum class Pattern {
  AllToAll,       ///< Poisson arrivals, uniform receiver (default setup)
  Bursty,         ///< rack-to-rack shuffle + periodic 50:1 incast (Fig 4a)
  DenseTM,        ///< every sender -> every receiver, one long flow (Fig 4c)
  Incast,         ///< single n:1 burst (tests)
};

const char* to_string(Protocol p);

struct ExperimentConfig {
  Protocol protocol = Protocol::Dcpim;
  TopoKind topo = TopoKind::LeafSpine;
  Pattern pattern = Pattern::AllToAll;

  // --- topology scaling ------------------------------------------------------
  int racks = 9;
  int hosts_per_rack = 16;
  int spines = 4;
  int fat_tree_k = 16;

  // --- workload -----------------------------------------------------------
  std::string workload = "imc10";  ///< imc10 | websearch | datamining
  /// >0: every flow this size; -1: every flow BDP+1 (Fig 4b worst case).
  Bytes fixed_size{};
  double load = 0.6;

  // --- timing -----------------------------------------------------------------
  TimePoint gen_stop{us(800)};       ///< arrivals stop here
  TimePoint horizon{ms(3)};          ///< simulation end (drain tail)
  TimePoint measure_start{us(100)};  ///< stats window (flow starts)
  TimePoint measure_end{us(800)};
  std::uint64_t seed = 1;
  Time util_bin = us(10);

  // --- bursty-pattern parameters (Fig 4a) --------------------------------------
  int incast_fanin = 50;
  Bytes incast_size = kKB * 128;
  Time incast_interval = us(100);
  int incast_bursts = 6;

  // --- dense-TM parameters (Fig 4c) ---------------------------------------------
  Bytes dense_flow_size = kMB;

  // --- failure injection --------------------------------------------------------
  double loss_rate = 0.0;  ///< random per-packet loss on every port

  // --- load balancing -----------------------------------------------------------
  /// Multi-path forwarding policy at every switch. Unset (the default)
  /// means the protocol's canonical policy — spray for the receiver-driven
  /// designs, per-flow ECMP for the window-based family and Fastpass —
  /// exactly the pre-lb_policy behaviour. Campaigns set an explicit policy
  /// to sweep the survivability grid.
  std::optional<net::LbPolicy> lb_policy;
  Time flowlet_gap = us(5);  ///< NetConfig::flowlet_gap (flowlet policy only)
  /// FaultPlan spec executed against the topology (empty = no faults); the
  /// `--faults` grammar of sim/fault/fault_plan.h. Wildcard targets and
  /// `rand:` bursts resolve from `fault_seed`, never the workload RNG.
  std::string faults;
  std::uint64_t fault_seed = 1;

  // --- invariant auditing ---------------------------------------------------
  /// When set, the standard invariant probes (see harness/audit_probes.h)
  /// sweep the simulation every 10 us plus once at the end; the result
  /// lands in ExperimentResult::audit.
  bool audit = false;

  /// Recycle data packets through net::PacketPool (NetConfig::packet_pool).
  /// Behaviour-invariant by contract: tests/test_packet_pool.cpp asserts
  /// result_fingerprint() equality on/off for every protocol.
  bool packet_pool = true;

  /// dcPIM's parameters; the baselines have none.
  core::DcpimConfig dcpim;
};

struct ExperimentResult {
  stats::SlowdownSummary overall;
  stats::SlowdownSummary short_flows;  ///< size <= 1 BDP
  std::vector<stats::BucketSummary> buckets;
  /// Delivered/offered payload inside the measure window (utilization
  /// metric of Table 1; ~1.0 when the load is sustained).
  double goodput_ratio = 0;
  /// Delivered payload in the window relative to the *offered rate*
  /// (load x senders x host rate). In steady state this sits at ~1.0 when
  /// the protocol keeps up and collapses below it when it cannot — the
  /// signal behind the paper's "maximum sustainable load" (Figure 3a).
  double load_carried_ratio = 0;
  std::size_t flows_total = 0;
  std::size_t flows_done = 0;
  std::uint64_t drops = 0;
  /// The subset of `drops` attributed to injected faults (loss windows,
  /// downed links, targeted drops) rather than protocol behavior.
  std::uint64_t injected_drops = 0;
  std::uint64_t trims = 0;
  std::uint64_t pfc_pauses = 0;
  /// Simulator events executed over the whole run and the instant the run
  /// drained to. Part of the fingerprint: two runs that agree here executed
  /// the same event count to the same simulated instant.
  std::uint64_t events_executed = 0;
  TimePoint sim_end{};
  /// PacketPool traffic (zeros when cfg.packet_pool was off). Deliberately
  /// NOT part of result_fingerprint(): recycling must change allocator
  /// traffic only, never results.
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_recycled = 0;
  /// Most simulator events queued at once (Simulator::peak_pending). Not
  /// part of result_fingerprint(): the event queue's shape is not an
  /// outcome.
  std::uint64_t peak_pending = 0;
  Bytes bdp{};
  Time data_rtt{};
  Time control_rtt{};
  /// Delivered-throughput series (fraction of receiver aggregate capacity).
  std::vector<double> util_series;
  Time util_bin = us(10);
  /// Invariant audit outcome (enabled == false unless cfg.audit was set).
  sim::AuditSummary audit;
  /// Fault-recovery metrics (enabled == false unless cfg.faults was set).
  sim::fault::RecoveryStats recovery;

  double mean_util(std::size_t from_bin, std::size_t to_bin) const;
};

/// Builds the network, runs the scenario, and gathers metrics.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace dcpim::harness
