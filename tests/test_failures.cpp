// Link-failure injection tests: §2.1 "failures and oversubscription are a
// norm in datacenter networks" — protocols must recover when links flap.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/dcpim_host.h"
#include "harness/fault_injector.h"
#include "net/switch.h"
#include "net/topology.h"
#include "proto/ndp.h"
#include "proto/tcp.h"
#include "sim/fault/fault_plan.h"

namespace dcpim {
namespace {

net::LeafSpineParams small_topo() {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  return p;
}

/// First leaf->spine port found (an ECMP member packets get sprayed onto).
net::Port* first_uplink(net::Network& net) {
  for (const auto& dev : net.devices()) {
    if (dev->kind() != net::Device::Kind::Switch) continue;
    if (dev->name().rfind("leaf", 0) != 0) continue;
    for (const auto& port : dev->ports) {
      if (port->peer()->kind() == net::Device::Kind::Switch) {
        return port.get();
      }
    }
  }
  return nullptr;
}

TEST(LinkFailureTest, PortDropsWhileDownAndResumes) {
  net::NetConfig ncfg;
  net::Network net(ncfg);
  core::DcpimConfig cfg;
  auto topo = net::Topology::leaf_spine(net, small_topo(),
                                        core::dcpim_host_factory(cfg));

  net::Port* uplink = first_uplink(net);
  ASSERT_NE(uplink, nullptr);
  EXPECT_TRUE(uplink->link_up());
  uplink->set_link_up(false);
  EXPECT_FALSE(uplink->link_up());
  uplink->set_link_up(true);
  EXPECT_TRUE(uplink->link_up());
}

TEST(LinkFailureTest, DcpimSurvivesSpineLinkFlap) {
  net::NetConfig ncfg;
  net::Network net(ncfg);
  core::DcpimConfig cfg;
  auto topo = net::Topology::leaf_spine(net, small_topo(),
                                        core::dcpim_host_factory(cfg));

  // Inter-rack flows that span the flapping uplink (packet spraying puts
  // roughly half their packets on it while it is down).
  for (int i = 0; i < 4; ++i) {
    net.create_flow(i, 4 + i, net.bdp() * 4, TimePoint(us(i)));
  }
  net.create_flow(0, 5, Bytes{8'000}, TimePoint(us(2)));  // short flow during the outage

  net::Port* uplink = first_uplink(net);
  ASSERT_NE(uplink, nullptr);
  net.sim().schedule_at(TimePoint(us(5)), [uplink]() { uplink->set_link_up(false); });
  net.sim().schedule_at(TimePoint(us(120)), [uplink]() { uplink->set_link_up(true); });

  net.sim().run(TimePoint(ms(60)));
  EXPECT_EQ(net.completed_flows, net.num_flows());
  EXPECT_GT(net.total_drops(), 0u);  // the outage really dropped packets
}

TEST(LinkFailureTest, NdpSurvivesSpineLinkFlap) {
  net::Network net(net::NetConfig{});
  net::LeafSpineParams p = small_topo();
  p.port_customize = proto::ndp_port_customize;
  auto topo = net::Topology::leaf_spine(net, p, proto::ndp_host_factory());

  for (int i = 0; i < 4; ++i) {
    net.create_flow(i, 4 + i, Bytes{200'000}, TimePoint(us(i)));
  }
  net::Port* uplink = first_uplink(net);
  ASSERT_NE(uplink, nullptr);
  net.sim().schedule_at(TimePoint(us(5)), [uplink]() { uplink->set_link_up(false); });
  net.sim().schedule_at(TimePoint(us(150)), [uplink]() { uplink->set_link_up(true); });
  net.sim().run(TimePoint(ms(100)));
  EXPECT_EQ(net.completed_flows, net.num_flows());
}

TEST(LinkFailureTest, TcpSurvivesAccessLinkFlap) {
  net::NetConfig ncfg;
  ncfg.lb_policy = net::LbPolicy::kEcmpFlow;
  net::Network net(ncfg);
  auto topo = net::Topology::leaf_spine(net, small_topo(),
                                        proto::tcp_host_factory());

  net.create_flow(0, 7, Bytes{150'000}, TimePoint{});
  // Flap the sender's own NIC: a total blackout only RTO recovers from.
  net::Port* nic = net.host(0)->nic();
  net.sim().schedule_at(TimePoint(us(10)), [nic]() { nic->set_link_up(false); });
  net.sim().schedule_at(TimePoint(us(200)), [nic]() { nic->set_link_up(true); });
  net.sim().run(TimePoint(ms(200)));
  EXPECT_EQ(net.completed_flows, 1u);
}

TEST(LinkFailureTest, ControlRetransmissionCoversNotificationLoss) {
  // Down the sender NIC exactly when a flow arrives: its notification dies;
  // dcPIM's control retransmission must re-establish it after the repair.
  net::NetConfig ncfg;
  net::Network net(ncfg);
  core::DcpimConfig cfg;
  auto topo = net::Topology::leaf_spine(net, small_topo(),
                                        core::dcpim_host_factory(cfg));

  net::Port* nic = net.host(0)->nic();
  net.sim().schedule_at(TimePoint(us(1) - ps(1)), [nic]() { nic->set_link_up(false); });
  net.create_flow(0, 5, net.bdp() * 3, TimePoint(us(1)));
  net.sim().schedule_at(TimePoint(us(40)), [nic]() { nic->set_link_up(true); });
  net.sim().run(TimePoint(ms(60)));
  EXPECT_EQ(net.completed_flows, 1u);
  auto* sender = static_cast<core::DcpimHost*>(net.host(0));
  EXPECT_GT(sender->counters().notify_retx, 0u);
}

// ---- targeted control-packet kills (FaultPlan `drop:` events) ---------------
//
// Each test kills exactly one dcPIM control-packet kind for a window that
// covers the first matching rounds (rate 1.0 — every such packet dies) and
// asserts the protocol still delivers every flow afterwards. Token loss
// additionally must be repaired by the receiver's token-readmission path
// (counters().readmitted_seqs), the mechanism §5.1 relies on.

/// Runs inter-rack dcPIM traffic under `spec`; returns total readmissions.
std::uint64_t run_targeted_drop(const std::string& spec,
                                std::uint64_t* injected_drops = nullptr) {
  net::NetConfig ncfg;
  net::Network net(ncfg);
  core::DcpimConfig cfg;
  auto topo = net::Topology::leaf_spine(net, small_topo(),
                                        core::dcpim_host_factory(cfg));

  for (int i = 0; i < 4; ++i) {
    net.create_flow(i, 4 + i, net.bdp() * 4, TimePoint(us(i)));
  }
  harness::FaultInjector inj(net, sim::fault::parse_fault_spec(spec), {});
  inj.install();
  net.sim().run(TimePoint(ms(80)));
  EXPECT_EQ(net.completed_flows, net.num_flows()) << "spec '" << spec << "'";
  if (injected_drops != nullptr) {
    *injected_drops = net.total_injected_drops();
  }
  std::uint64_t readmitted = 0;
  for (int h = 0; h < topo.num_hosts(); ++h) {
    readmitted +=
        static_cast<core::DcpimHost*>(net.host(h))->counters().readmitted_seqs;
  }
  return readmitted;
}

TEST(TargetedDropTest, DcpimSurvivesRtsKill) {
  std::uint64_t drops = 0;
  run_targeted_drop("drop:rts@2us:60us", &drops);
  EXPECT_GT(drops, 0u);  // the window really killed RTS packets
}

TEST(TargetedDropTest, DcpimSurvivesGrantKill) {
  std::uint64_t drops = 0;
  run_targeted_drop("drop:grant@2us:60us", &drops);
  EXPECT_GT(drops, 0u);
}

TEST(TargetedDropTest, DcpimSurvivesAcceptKill) {
  std::uint64_t drops = 0;
  run_targeted_drop("drop:accept@2us:60us", &drops);
  EXPECT_GT(drops, 0u);
}

TEST(TargetedDropTest, TokenKillRecoversThroughReadmission) {
  std::uint64_t drops = 0;
  const std::uint64_t readmitted =
      run_targeted_drop("drop:token@30us:80us", &drops);
  EXPECT_GT(drops, 0u);
  // Every flow finished (asserted inside the helper) *because* the receiver
  // readmitted the token-starved sequence ranges.
  EXPECT_GT(readmitted, 0u);
}

TEST(TargetedDropTest, PartialRateKillStillCompletes) {
  run_targeted_drop("drop:control:0.5@2us:60us");
}

}  // namespace
}  // namespace dcpim
