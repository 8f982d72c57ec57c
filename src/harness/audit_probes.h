// Standard invariant probes for the simulation auditor (ISSUE: invariant
// layer). The generic engine lives in sim/audit.h; this header wires the
// concrete, whole-system probes over the network and protocol layers:
//
//   flow-byte-conservation   injected payload = delivered + dropped + in-flight
//                            (checked as the safe inequalities; see .cpp)
//   queue-occupancy          per-port priority queues sum consistently and
//                            respect the configured buffer budgets
//   dcpim-token-accounting   token-clocked data never outruns granted tokens
//   dcpim-matching           per-epoch matches within the k-channel bound
//                            (Theorem 1 precondition)
//   pfc-pause-ledger         per-ingress PFC byte ledgers are non-negative,
//                            consistent with the pause/resume hysteresis
//                            band, and covered by the egress queues
//   packet-pool-hygiene      the data-packet ledger: frees never outrun
//                            makes, and a fully drained run has freed
//                            every data packet it made (the name predates
//                            the removal of packet recycling)
//   dcpim-epoch-rollover     event-driven (Auditor::add_event_probe): each
//                            DcpimHost re-runs the token/matching checks at
//                            its own epoch boundary, between sweeps
//
// The dcPIM probes are no-ops on non-dcPIM hosts, so the full set can be
// installed for any protocol under test.
#pragma once

#include "net/network.h"
#include "sim/audit.h"

namespace dcpim::harness {

/// Installs the standard probe set on `auditor`, subscribing the byte-ledger
/// observers on `net`. Call before the simulation runs (the conservation
/// ledger must see every injected packet); `net` must outlive `auditor`
/// sweeps.
void install_standard_probes(sim::Auditor& auditor, net::Network& net);

}  // namespace dcpim::harness
