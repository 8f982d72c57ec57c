// dcPIM protocol parameters (§3.6): rounds r, channels k, slack beta —
// plus the ablation and robustness knobs DESIGN.md calls out. The fabric
// constants the paper derives everything else from (1 BDP as the short-flow
// threshold and token window, the cRTT behind stages and timers) live on
// net::Network, set by the topology.
#pragma once

#include "util/check.h"
#include <cstdint>

#include "util/time.h"
#include "util/units.h"

namespace dcpim::core {

struct DcpimConfig {
  // --- the paper's three parameters (§3.6) -------------------------------
  int rounds = 4;    ///< r: matching rounds per phase (first may be FCT-opt)
  int channels = 4;  ///< k: per-host channels (paper recommends k == r)
  double beta = 1.3;  ///< slack on cRTT/2 per stage (§3.3)

  // --- optimizations & ablations -----------------------------------------
  bool fct_optimizing_first_round = true;  ///< §3.5 smallest-flow round 1
  /// §3.1/§3.5: notifications "may contain" flow size. When false the
  /// receiver schedules size-blind — demand is estimated at one channel per
  /// active flow, round 1 degenerates to a random round, and tokens are
  /// issued FIFO rather than SRPT (the paper's unknown-size regime).
  bool flow_size_aware = true;
  bool pipeline_phases = true;  ///< §3.3; false = sequential (ablation)
  /// Max uniform per-host clock offset (async robustness, §3.5). The offset
  /// is drawn once per host in [0, clock_jitter].
  Time clock_jitter{};
  /// Long-flow data priority levels (>=1). With 1, all matched data uses
  /// priority 2; more levels map smaller-remaining flows to higher priority.
  int long_flow_priorities = 1;

  // --- derived quantities (crtt: Network::max_control_rtt()) ----------------
  Time stage_length(Time crtt) const { return crtt * (beta / 2.0); }
  /// Matching-phase length == data-phase length (pipelined, §3.3).
  Time epoch_length(Time crtt) const {
    return stage_length(crtt) * (2 * rounds + 1);
  }

  void validate() const {
    DCPIM_CHECK_GE(rounds, 1, "dcPIM needs at least one matching round");
    DCPIM_CHECK_GE(channels, 1, "dcPIM needs at least one channel");
    DCPIM_CHECK_GE(beta, 1.0, "stage slack below 1 breaks stage alignment");
    DCPIM_CHECK_GE(long_flow_priorities, 1, "need a data priority level");
  }
};

}  // namespace dcpim::core
