#include "net/topology.h"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>

#include "util/check.h"
#include "util/logging.h"

namespace dcpim::net {

namespace {

/// The device graph as one flat adjacency list (CSR): the peer device id of
/// port i of device d is peer[begin[d] + i], or -1 when the port is not
/// wired. Built once per finalize, so the per-host BFS touches no Port.
struct Adjacency {
  std::vector<std::uint32_t> begin;  ///< one per device, plus the end
  std::vector<int> peer;

  explicit Adjacency(const Network& net) {
    begin.reserve(net.devices().size() + 1);
    begin.push_back(0);
    for (const auto& dev : net.devices()) {
      for (const auto& port : dev->ports) {
        peer.push_back(port->peer() != nullptr ? port->peer()->device_id()
                                               : -1);
      }
      begin.push_back(static_cast<std::uint32_t>(peer.size()));
    }
  }
  std::span<const int> peers(int dev) const {
    const auto d = static_cast<std::size_t>(dev);
    return {peer.data() + begin[d], peer.data() + begin[d + 1]};
  }
};

/// BFS distances (in device-graph hops) from device `start`. The caller
/// passes `frontier` in so its buffer is reused across calls.
std::vector<int> bfs_distances(const Adjacency& adj, int start,
                               std::vector<int>& frontier) {
  std::vector<int> dist(adj.begin.size() - 1, -1);
  dist[static_cast<std::size_t>(start)] = 0;
  frontier.assign(1, start);
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    const int dev = frontier[next];
    const int d = dist[static_cast<std::size_t>(dev)];
    for (const int peer : adj.peers(dev)) {
      if (peer < 0) continue;
      int& pd = dist[static_cast<std::size_t>(peer)];
      if (pd < 0) {
        pd = d + 1;
        frontier.push_back(peer);
      }
    }
  }
  return dist;
}

}  // namespace

void Topology::finalize(Network& net) {
  num_hosts_ = net.num_hosts();
  const auto& devices = net.devices();
  const Adjacency adj(net);

  // dist_to_host[h][dev] = hops from dev to host h.
  std::vector<std::vector<int>> dist_to_host(
      static_cast<std::size_t>(num_hosts_));
  std::vector<int> frontier;
  for (int h = 0; h < num_hosts_; ++h) {
    dist_to_host[static_cast<std::size_t>(h)] =
        bfs_distances(adj, net.host(h)->device_id(), frontier);
  }

  // Next-hop candidate tables for every switch: the ports whose peer is
  // one hop closer to the destination, in port order.
  for (const auto& dev : devices) {
    if (dev->kind() != Device::Kind::Switch) continue;
    auto* sw = static_cast<Switch*>(dev.get());
    const std::span<const int> peers = adj.peers(sw->device_id());
    std::vector<std::vector<std::uint16_t>> table(
        static_cast<std::size_t>(num_hosts_));
    for (int h = 0; h < num_hosts_; ++h) {
      const auto& dist = dist_to_host[static_cast<std::size_t>(h)];
      const int my_dist = dist[static_cast<std::size_t>(sw->device_id())];
      auto& cands = table[static_cast<std::size_t>(h)];
      for (std::size_t i = 0; i < peers.size(); ++i) {
        if (peers[i] >= 0 &&
            dist[static_cast<std::size_t>(peers[i])] == my_dist - 1) {
          cands.push_back(static_cast<std::uint16_t>(i));
        }
      }
      DCPIM_CHECK(my_dist < 0 || !cands.empty(), "unroutable destination");
    }
    sw->set_next_hops(table);
  }

  // Per-pair hop-count classes, filled one destination at a time so each
  // pass reads a single distance vector.
  const auto n = static_cast<std::size_t>(num_hosts_);
  std::vector<std::size_t> host_dev(n);
  for (std::size_t h = 0; h < n; ++h) {
    host_dev[h] =
        static_cast<std::size_t>(net.host(static_cast<int>(h))->device_id());
  }
  pair_class_.assign(n * n, 0);
  for (std::size_t d = 0; d < n; ++d) {
    const auto& dist = dist_to_host[d];
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d) continue;
      const int hops = dist[host_dev[s]];
      DCPIM_CHECK(hops > 0 && hops < 256, "host pair has no path");
      pair_class_[s * n + d] = static_cast<std::uint8_t>(hops);
    }
  }
  // A canonical path profile per class, walked for the first pair in
  // source-then-destination order that has it. A flag per class (hops <
  // 256) instead of a map lookup per host pair keeps this loop cheap.
  std::array<bool, 256> profiled{};
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      const std::uint8_t hops = pair_class_[s * n + d];
      if (s == d || profiled[hops]) continue;
      profiled[hops] = true;
      const auto& dist = dist_to_host[d];

      // Walk one canonical shortest path, accumulating fixed latency and
      // per-link rates.
      PathProfile prof;
      const Device* cur = net.host(static_cast<int>(s));
      while (static_cast<std::size_t>(cur->device_id()) != host_dev[d]) {
        const Port* chosen = nullptr;
        const int cur_dist = dist[static_cast<std::size_t>(cur->device_id())];
        for (const auto& port : cur->ports) {
          const Device* peer = port->peer();
          if (peer != nullptr &&
              dist[static_cast<std::size_t>(peer->device_id())] ==
                  cur_dist - 1) {
            chosen = port.get();
            break;
          }
        }
        DCPIM_CHECK(chosen != nullptr, "shortest-path walk lost the gradient");
        prof.link_rates.push_back(chosen->config().rate);
        prof.fixed_latency += chosen->arrival_delay();
        cur = chosen->peer();
      }
      prof.bottleneck =
          *std::min_element(prof.link_rates.begin(), prof.link_rates.end());
      class_profiles_.emplace(hops, std::move(prof));
    }
  }

  // Network-wide extremes (dcPIM sizes its stages on the longest cRTT).
  host_rate_ = net.host(0)->nic()->config().rate;
  Time max_data_rtt{};
  Time max_control_rtt{};
  for (const auto& [hops, prof] : class_profiles_) {
    Time data_one_way = prof.fixed_latency;
    Time ctrl_one_way = prof.fixed_latency;
    for (BitsPerSec rate : prof.link_rates) {
      data_one_way += serialization_time(kMtuWire, rate);
      ctrl_one_way += serialization_time(kControlPacketBytes, rate);
    }
    max_data_rtt = std::max(max_data_rtt, data_one_way + ctrl_one_way);
    max_control_rtt = std::max(max_control_rtt, 2 * ctrl_one_way);
  }
  const Bytes bdp = bytes_in(max_data_rtt, host_rate_);
  net.set_fabric(bdp, max_data_rtt, max_control_rtt);
  LOG_INFO("topology: %d hosts, data RTT %.2f us, cRTT %.2f us, BDP %lld B",
           num_hosts_, to_us(max_data_rtt), to_us(max_control_rtt),
           // sa-ok(unit-raw): printf interop
           static_cast<long long>(bdp.raw()));
}

const Topology::PathProfile& Topology::profile(int src, int dst) const {
  const auto cls = pair_class_[static_cast<std::size_t>(src) *
                                   static_cast<std::size_t>(num_hosts_) +
                               static_cast<std::size_t>(dst)];
  return class_profiles_.at(cls);
}

Time Topology::one_way_data(int src, int dst) const {
  const PathProfile& prof = profile(src, dst);
  Time t = prof.fixed_latency;
  for (BitsPerSec rate : prof.link_rates) {
    t += serialization_time(kMtuWire, rate);
  }
  return t;
}

Time Topology::one_way_control(int src, int dst) const {
  const PathProfile& prof = profile(src, dst);
  Time t = prof.fixed_latency;
  for (BitsPerSec rate : prof.link_rates) {
    t += serialization_time(kControlPacketBytes, rate);
  }
  return t;
}

Time Topology::oracle_fct(int src, int dst, Bytes size) const {
  const PathProfile& prof = profile(src, dst);
  const Bytes first_payload = std::min(size, kMtuPayload);
  const Bytes first_wire = first_payload + kHeaderBytes;
  const std::int64_t npkts = (size + kMtuPayload - Bytes{1}) / kMtuPayload;
  const Bytes total_wire = size + kHeaderBytes * npkts;

  Time t = prof.fixed_latency;
  for (BitsPerSec rate : prof.link_rates) {
    t += serialization_time(first_wire, rate);
  }
  t += serialization_time(total_wire - first_wire, prof.bottleneck);
  return t;
}

Topology Topology::leaf_spine(Network& net, const LeafSpineParams& params,
                              const HostFactory& make_host) {
  Topology topo;
  std::vector<Switch*> leaves;
  std::vector<Switch*> spines;
  leaves.reserve(static_cast<std::size_t>(params.racks));
  spines.reserve(static_cast<std::size_t>(params.spines));
  for (int r = 0; r < params.racks; ++r) {
    leaves.push_back(net.add_device<Switch>("leaf" + std::to_string(r)));
  }
  for (int s = 0; s < params.spines; ++s) {
    spines.push_back(net.add_device<Switch>("spine" + std::to_string(s)));
  }

  PortConfig host_link;
  host_link.rate = params.host_rate;
  host_link.propagation = params.propagation;
  host_link.buffer_bytes = params.buffer_bytes;

  PortConfig spine_link = host_link;
  spine_link.rate = params.spine_rate;

  if (params.port_customize) {
    params.port_customize(host_link);
    params.port_customize(spine_link);
  }

  for (int r = 0; r < params.racks; ++r) {
    for (int h = 0; h < params.hosts_per_rack; ++h) {
      const int host_id = r * params.hosts_per_rack + h;
      Host* host = make_host(net, host_id);
      Network::connect(*host, *leaves[static_cast<std::size_t>(r)], host_link);
    }
    for (Switch* spine : spines) {
      Network::connect(*leaves[static_cast<std::size_t>(r)], *spine,
                       spine_link);
    }
  }
  topo.finalize(net);
  return topo;
}

Topology Topology::fat_tree(Network& net, const FatTreeParams& params,
                            const HostFactory& make_host) {
  Topology topo;
  const int k = params.k;
  DCPIM_CHECK_EQ(k % 2, 0, "fat-tree arity must be even");
  const int half = k / 2;
  const int pods = k;
  const int hosts_per_edge = half;

  PortConfig link;
  link.rate = params.link_rate;
  link.propagation = params.propagation;
  link.buffer_bytes = params.buffer_bytes;
  if (params.port_customize) params.port_customize(link);

  // Core switches: (k/2)^2.
  std::vector<Switch*> cores;
  for (int i = 0; i < half * half; ++i) {
    cores.push_back(net.add_device<Switch>("core" + std::to_string(i)));
  }

  int host_id = 0;
  for (int p = 0; p < pods; ++p) {
    std::vector<Switch*> edges;
    std::vector<Switch*> aggs;
    for (int e = 0; e < half; ++e) {
      edges.push_back(net.add_device<Switch>("edge" + std::to_string(p) + "_" +
                                             std::to_string(e)));
    }
    for (int a = 0; a < half; ++a) {
      aggs.push_back(net.add_device<Switch>("agg" + std::to_string(p) + "_" +
                                            std::to_string(a)));
    }
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < hosts_per_edge; ++h) {
        Host* host = make_host(net, host_id++);
        Network::connect(*host, *edges[static_cast<std::size_t>(e)], link);
      }
      for (int a = 0; a < half; ++a) {
        Network::connect(*edges[static_cast<std::size_t>(e)],
                         *aggs[static_cast<std::size_t>(a)], link);
      }
    }
    // Aggregation a connects to cores [a*half, (a+1)*half).
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        Network::connect(*aggs[static_cast<std::size_t>(a)],
                         *cores[static_cast<std::size_t>(a * half + c)], link);
      }
    }
  }
  topo.finalize(net);
  return topo;
}

}  // namespace dcpim::net
