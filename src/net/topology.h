// Topology builders: two-tier leaf-spine (with optional oversubscription)
// and three-tier FatTree, per Table 1 of the paper.
//
// Besides wiring up switches and hosts, a Topology computes:
//  * shortest-path ECMP next-hop tables for every switch (BFS, so any
//    oversubscription or asymmetry is handled uniformly), and
//  * analytic per-pair path profiles used for unloaded ("oracle") flow
//    completion times — the denominator of the paper's slowdown metric —
//    and for the fabric-wide BDP and RTTs that finalize() stores on the
//    Network (Network::bdp/max_data_rtt/max_control_rtt).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "net/config.h"
#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"

namespace dcpim::net {

/// Optional per-port feature hook applied to every link endpoint the
/// builder creates (both switch and host sides): protocols use it to enable
/// ECN marking (DCTCP), trimming (NDP), selective dropping (Aeolus) or PFC
/// (HPCC) before ports are instantiated.
using PortCustomize = std::function<void(PortConfig&)>;

struct LeafSpineParams {
  int racks = 9;
  int hosts_per_rack = 16;
  int spines = 4;
  BitsPerSec host_rate = 100 * kGbps;
  BitsPerSec spine_rate = 400 * kGbps;  ///< leaf<->spine links
  Time propagation = ns(200);
  Bytes buffer_bytes = 500 * kKB;
  PortCustomize port_customize;
};

struct FatTreeParams {
  int k = 16;  ///< pods; hosts = k^3/4 (k=16 -> 1024 hosts)
  BitsPerSec link_rate = 100 * kGbps;
  Time propagation = ns(200);
  Bytes buffer_bytes = 500 * kKB;
  PortCustomize port_customize;
};

class Topology {
 public:
  /// Builds a host given its id; must call Network::add_device under the
  /// hood and return the created Host.
  using HostFactory = std::function<Host*(Network&, int host_id)>;

  static Topology leaf_spine(Network& net, const LeafSpineParams& params,
                             const HostFactory& make_host);
  static Topology fat_tree(Network& net, const FatTreeParams& params,
                           const HostFactory& make_host);

  int num_hosts() const { return num_hosts_; }
  BitsPerSec host_rate() const { return host_rate_; }

  /// Unloaded one-way latency of a full data packet / a control packet.
  Time one_way_data(int src, int dst) const;
  Time one_way_control(int src, int dst) const;

  /// Optimal FCT for a flow alone in the network (slowdown denominator):
  /// pipelined store-and-forward of the first packet plus the remaining
  /// bytes at the path bottleneck.
  Time oracle_fct(int src, int dst, Bytes size) const;

 private:
  struct PathProfile {
    Time fixed_latency{};  ///< propagation + switch/host processing
    std::vector<BitsPerSec> link_rates;  ///< along the canonical path
    BitsPerSec bottleneck{};
  };

  /// Computes routing tables and per-hop-count path profiles, and stores
  /// the fabric constants on the Network.
  void finalize(Network& net);
  const PathProfile& profile(int src, int dst) const;

  int num_hosts_ = 0;
  BitsPerSec host_rate_{};
  std::vector<std::uint8_t> pair_class_;  ///< hop count per (src,dst)
  std::map<int, PathProfile> class_profiles_;
};

}  // namespace dcpim::net
