// Load-balancing policy tests: flowlet stickiness and gap re-hash,
// rate-weighted ECMP under degraded/downed links, and the determinism
// contract — per-switch LB RNG streams mean faulted sweeps fingerprint
// identically under any `--jobs`, for every policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "net/topology.h"

namespace dcpim::net {
namespace {

/// Sender that blasts all packets of a flow immediately; the shared
/// reassembly helper finishes the flow on the receive side.
class BlastHost : public Host {
 public:
  using Host::Host;
  void on_flow_arrival(Flow& flow) override {
    const std::uint32_t n = flow.seq_count();
    for (std::uint32_t seq = 0; seq < n; ++seq) {
      send(make_data_packet(flow, {.seq = seq, .priority = 2}));
    }
  }

 protected:
  void on_packet(PacketPtr p) override { accept_data(*p); }
};

Topology::HostFactory blast_factory() {
  return [](Network& net, int id) -> Host* {
    return net.add_device<BlastHost>(id);
  };
}

LeafSpineParams four_spine_params() {
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 1;
  p.spines = 4;
  return p;
}

/// Leaf->spine uplink ports that carried at least one packet.
int used_uplinks(const Network& net) {
  int used = 0;
  for (const auto& dev : net.devices()) {
    if (dev->kind() != Device::Kind::Switch) continue;
    for (const auto& port : dev->ports) {
      if (port->peer()->kind() == Device::Kind::Switch &&
          port->tx_packets > PacketCount{}) {
        ++used;
      }
    }
  }
  return used;
}

/// The uplink of `leaf` whose far end is the device named `spine_name`.
Port* uplink_to(Network& net, const std::string& leaf_name,
                const std::string& spine_name) {
  for (const auto& dev : net.devices()) {
    if (dev->name() != leaf_name) continue;
    for (const auto& port : dev->ports) {
      if (port->peer() != nullptr && port->peer()->name() == spine_name) {
        return port.get();
      }
    }
  }
  return nullptr;
}

TEST(LbPolicyTest, FlowletSticksDuringContinuousBurst) {
  NetConfig ncfg;
  ncfg.lb_policy = LbPolicy::kFlowlet;  // default flowlet_gap = 5us
  Network net(ncfg);
  auto topo = Topology::leaf_spine(net, four_spine_params(), blast_factory());
  (void)topo;
  net.create_flow(0, 1, Bytes{600'000}, TimePoint{});
  net.sim().run();
  // A back-to-back burst never opens a gap, so the pick is sticky: exactly
  // one uplink per traversed leaf (forward at leaf0, nothing re-balances at
  // the spine — it has a single downlink per destination).
  EXPECT_EQ(used_uplinks(net), 2);
}

TEST(LbPolicyTest, FlowletRehashesAfterIdleGap) {
  NetConfig ncfg;
  ncfg.lb_policy = LbPolicy::kFlowlet;
  ncfg.flowlet_gap = ps(1);  // every inter-packet spacing exceeds the gap
  Network net(ncfg);
  auto topo = Topology::leaf_spine(net, four_spine_params(), blast_factory());
  (void)topo;
  net.create_flow(0, 1, Bytes{600'000}, TimePoint{});
  net.sim().run();
  // With the gap below the serialization time the policy degenerates to
  // per-packet re-hash: all four spine paths carry traffic (8 switch-to-
  // switch ports on the forward path).
  EXPECT_EQ(used_uplinks(net), 8);
}

TEST(LbPolicyTest, EcmpWeightedSkipsDownedLink) {
  NetConfig ncfg;
  ncfg.lb_policy = LbPolicy::kEcmpWeighted;
  Network net(ncfg);
  auto topo = Topology::leaf_spine(net, four_spine_params(), blast_factory());
  (void)topo;
  Port* dead = uplink_to(net, "leaf0", "spine0");
  ASSERT_NE(dead, nullptr);
  dead->set_link_up(false);
  // 300KB fits the NIC buffer: BlastHost has no retransmit, so the flow
  // only completes if not a single packet was steered into the dead link.
  Flow* flow = net.create_flow(0, 1, Bytes{300'000}, TimePoint{});
  net.sim().run();
  // A downed link has weight zero: the flow completes without a single
  // packet steered into it.
  EXPECT_TRUE(flow->finished());
  EXPECT_EQ(dead->tx_packets, PacketCount{});
}

TEST(LbPolicyTest, EcmpWeightedFollowsDegradedRate) {
  NetConfig ncfg;
  ncfg.lb_policy = LbPolicy::kEcmpWeighted;
  Network net(ncfg);
  auto topo = Topology::leaf_spine(net, four_spine_params(), blast_factory());
  (void)topo;
  Port* slow = uplink_to(net, "leaf0", "spine0");
  ASSERT_NE(slow, nullptr);
  slow->set_rate(slow->config().rate / 100);
  net.create_flow(0, 1, Bytes{600'000}, TimePoint{});
  net.sim().run();
  // Weights follow the current rate: the brownout link receives ~1/301 of
  // the leaf0 packets instead of 1/4. Compare against the healthiest peer
  // with plenty of slack (~400 packets in flight total).
  const auto slow_tx = slow->tx_packets.raw();
  auto max_healthy = slow_tx - slow_tx;  // zero of the raw counter type
  for (const char* spine : {"spine1", "spine2", "spine3"}) {
    Port* up = uplink_to(net, "leaf0", spine);
    ASSERT_NE(up, nullptr);
    max_healthy = std::max(max_healthy, up->tx_packets.raw());
  }
  EXPECT_LT(slow_tx * 10, max_healthy);
}

TEST(LbPolicyTest, FlowletPickIsDeterministicAcrossRuns) {
  // The flowlet/weighted draws come from the per-switch lb RNG stream
  // (seeded from (net seed, device id)), so two identical runs make
  // identical picks.
  auto run_once = []() {
    NetConfig ncfg;
    ncfg.lb_policy = LbPolicy::kFlowlet;
    ncfg.flowlet_gap = ps(1);
    Network net(ncfg);
    auto topo =
        Topology::leaf_spine(net, four_spine_params(), blast_factory());
    (void)topo;
    net.create_flow(0, 1, Bytes{600'000}, TimePoint{});
    net.sim().run();
    std::vector<std::uint64_t> tx;
    for (const char* spine : {"spine0", "spine1", "spine2", "spine3"}) {
      tx.push_back(uplink_to(net, "leaf0", spine)->tx_packets.raw());
    }
    return tx;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- sweep determinism across --jobs, per policy ----------------------------

TEST(LbPolicyTest, FaultedSweepFingerprintsIdenticalAcrossJobs) {
  // The acceptance contract for the LB/gray extension: a faulted sweep that
  // exercises gray loss, a shared-risk group, and a brownout fingerprints
  // bit-identically whether it runs serially or on four workers, for every
  // policy. All fault draws come from the injector/fault-port/lb streams,
  // never from a shared mutable RNG.
  std::vector<harness::ExperimentConfig> configs;
  for (net::LbPolicy policy :
       {LbPolicy::kSpray, LbPolicy::kEcmpFlow, LbPolicy::kFlowlet,
        LbPolicy::kEcmpWeighted}) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::Dcpim;
    cfg.racks = 2;
    cfg.hosts_per_rack = 4;
    cfg.spines = 2;
    cfg.workload = "imc10";
    cfg.load = 0.6;
    cfg.seed = 11;
    cfg.gen_stop = TimePoint(us(60));
    cfg.measure_start = TimePoint(us(5));
    cfg.measure_end = TimePoint(us(60));
    cfg.horizon = TimePoint(ms(50));
    cfg.lb_policy = policy;
    cfg.fault_seed = 11;
    // Exact-device targets (every port of both leaves): the plan must bite
    // hard enough that the gray/srlg assertions below are seed-robust.
    cfg.faults =
        "gray:leaf0:0.5@5us:50us;gray:leaf1:0.5@5us:50us;"
        "srlg:power=spine0+spine1@20us:10us;degrade:leaf0:0.5@15us:30us";
    configs.push_back(cfg);
  }
  harness::SweepOptions serial;
  serial.jobs = 1;
  harness::SweepOptions parallel;
  parallel.jobs = 4;
  const auto a = harness::run_sweep(configs, serial);
  const auto b = harness::run_sweep(configs, parallel);
  ASSERT_EQ(a.size(), configs.size());
  ASSERT_EQ(b.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(to_string(*configs[i].lb_policy));
    EXPECT_EQ(harness::result_fingerprint(a[i]),
              harness::result_fingerprint(b[i]));
    // The plan actually bit: gray drops were injected and attributed.
    EXPECT_GT(a[i].recovery.gray_drops, 0u);
    EXPECT_EQ(a[i].recovery.srlg.size(), 1u);
  }
}

}  // namespace
}  // namespace dcpim::net
