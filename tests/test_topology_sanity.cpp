// Link-seam guard over the campaign corpus (DESIGN.md §15): every topology
// reachable from a committed campaign spec must give every inter-device
// link a strictly positive propagation delay, the bound that keeps every
// cross-link event (arrival, PFC pause) strictly in its sender's future.
// The Port constructor DCPIM_CHECKs it per link, so a spec that reaches a
// zero-delay link aborts here, at test time, instead of in a figure run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/grid.h"
#include "campaign/spec.h"
#include "harness/experiment.h"
#include "net/host.h"
#include "net/network.h"
#include "net/topology.h"
#include "util/time.h"

namespace dcpim {
namespace {

#ifndef DCPIM_CAMPAIGN_SPEC_DIR
#error "build must define DCPIM_CAMPAIGN_SPEC_DIR"
#endif

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every committed spec, sorted by file name.
std::vector<std::filesystem::path> corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(DCPIM_CAMPAIGN_SPEC_DIR)) {
    if (entry.path().extension() == ".campaign") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// Protocol-free host: topology wiring only, no traffic.
class ProbeHost final : public net::Host {
 public:
  using net::Host::Host;
  void on_flow_arrival(net::Flow&) override {}

 protected:
  void on_packet(net::PacketPtr) override {}
};

net::Topology::HostFactory probe_factory() {
  return [](net::Network& n, int id) {
    return static_cast<net::Host*>(n.add_device<ProbeHost>(id));
  };
}

// The topology-shaping fields of an expanded cell — one build per distinct
// tuple, not per cell (a load sweep reuses its topology).
using TopoSignature = std::tuple<harness::TopoKind, int, int, int, int>;

TopoSignature signature_of(const harness::ExperimentConfig& cfg) {
  return {cfg.topo, cfg.racks, cfg.hosts_per_rack, cfg.spines,
          cfg.fat_tree_k};
}

// Mirrors harness build_topology (experiment.cpp): same params, same
// builders, minus the protocol port hooks (which never touch propagation).
void build_and_check(const TopoSignature& sig, const std::string& label) {
  const auto [kind, racks, hosts_per_rack, spines, fat_tree_k] = sig;
  net::Network net{net::NetConfig{}};
  std::unique_ptr<net::Topology> topo;
  switch (kind) {
    case harness::TopoKind::LeafSpine:
    case harness::TopoKind::Oversubscribed: {
      net::LeafSpineParams p;
      p.racks = racks;
      p.hosts_per_rack = hosts_per_rack;
      p.spines = spines;
      if (kind == harness::TopoKind::Oversubscribed) {
        p.spine_rate = p.spine_rate / 2;
      }
      topo = std::make_unique<net::Topology>(
          net::Topology::leaf_spine(net, p, probe_factory()));
      break;
    }
    case harness::TopoKind::FatTree: {
      net::FatTreeParams p;
      p.k = fat_tree_k;
      topo = std::make_unique<net::Topology>(
          net::Topology::fat_tree(net, p, probe_factory()));
      break;
    }
    case harness::TopoKind::Testbed: {
      net::LeafSpineParams p;
      p.racks = 2;
      p.hosts_per_rack = 16;
      p.spines = 2;
      p.host_rate = 10 * kGbps;
      p.spine_rate = 40 * kGbps;
      topo = std::make_unique<net::Topology>(
          net::Topology::leaf_spine(net, p, probe_factory()));
      break;
    }
  }
  ASSERT_NE(topo, nullptr) << label;
  ASSERT_GT(topo->num_hosts(), 0) << label;
  // The Port constructor has already checked each link's propagation.
  std::size_t links = 0;
  for (const auto& dev : net.devices()) links += dev->ports.size();
  EXPECT_GT(links, 0u) << label;
}

TEST(TopologySanityTest, EverySpecReachableTopologyHasPositiveLookahead) {
  std::set<TopoSignature> seen;
  for (const std::filesystem::path& file : corpus()) {
    const std::string path = file.string();
    const campaign::CampaignSpec spec =
        campaign::parse_campaign_spec(read_file(path), path);
    for (const campaign::Cell& cell : campaign::expand(spec)) {
      const TopoSignature sig = signature_of(cell.config);
      if (!seen.insert(sig).second) continue;
      build_and_check(sig, file.filename().string() + " cell '" +
                               cell.label + "'");
    }
  }
  EXPECT_FALSE(seen.empty());
}

// The default parameter sets themselves (what a spec inherits when its
// [topology] section is silent) must also carry positive propagation.
TEST(TopologySanityTest, BuilderDefaultsHavePositiveLookahead) {
  EXPECT_GT(net::LeafSpineParams{}.propagation, Time{});
  EXPECT_GT(net::FatTreeParams{}.propagation, Time{});
}

}  // namespace
}  // namespace dcpim
