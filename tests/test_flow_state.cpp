// Per-flow transport records (net::FlowState): each lives on its Flow, is
// reachable only from that flow's sender or receiver host, and is released
// once the transport is done with it.
#include <gtest/gtest.h>

#include <utility>

#include "core/dcpim_host.h"
#include "net/host.h"
#include "net/network.h"
#include "net/topology.h"
#include "proto/fastpass.h"
#include "proto/homa.h"
#include "proto/ndp.h"
#include "proto/phost.h"
#include "proto/tcp.h"

namespace dcpim {
namespace {

net::LeafSpineParams small_topo() {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  return p;
}

// Short and long flows across the spine plus a three-to-one incast, run
// until every flow finishes and then for 25 cRTTs, past the slowest
// release timer (Homa's 20-cRTT notify check). No finished flow may still
// hold a sender or a receiver record.
void expect_records_released(net::Network& net,
                             const net::Topology::HostFactory& factory,
                             net::PortCustomize customize = {}) {
  net::LeafSpineParams p = small_topo();
  p.port_customize = std::move(customize);
  const net::Topology topo = net::Topology::leaf_spine(net, p, factory);
  const Bytes bdp = net.bdp();
  for (int src = 0; src < 4; ++src) {
    const TimePoint start(us(2 * src));
    net.create_flow(src, 4 + src, Bytes{10'000}, start);
    net.create_flow(src, 4 + (src + 1) % 4, bdp * 4, start);
  }
  for (int src : {0, 1, 2}) {
    net.create_flow(src, 7, bdp * 2, TimePoint(us(20)));
  }

  auto all_finished = [&net] {
    for (const auto& flow : net.flows()) {
      if (!flow->finished()) return false;
    }
    return true;
  };
  TimePoint until{};
  while (!all_finished() && until < TimePoint(ms(20))) {
    until = until + us(50);
    net.sim().run(until);
  }
  ASSERT_TRUE(all_finished());
  net.sim().run(until + net.max_control_rtt() * 25);

  for (const auto& flow : net.flows()) {
    EXPECT_EQ(flow->sender_state, nullptr)
        << "flow " << flow->id << " keeps its sender record";
    EXPECT_EQ(flow->receiver_state, nullptr)
        << "flow " << flow->id << " keeps its receiver record";
  }
}

TEST(FlowStateTest, DcpimReleasesEveryRecord) {
  net::Network net{net::NetConfig{}};
  expect_records_released(net, core::dcpim_host_factory(core::DcpimConfig{}));
}

TEST(FlowStateTest, PhostReleasesEveryRecord) {
  net::Network net{net::NetConfig{}};
  expect_records_released(net, proto::phost_host_factory());
}

TEST(FlowStateTest, HomaReleasesEveryRecord) {
  net::Network net{net::NetConfig{}};
  expect_records_released(net, proto::homa_host_factory(/*aeolus=*/false));
}

TEST(FlowStateTest, NdpReleasesEveryRecord) {
  net::Network net{net::NetConfig{}};
  expect_records_released(net, proto::ndp_host_factory(),
                          proto::ndp_port_customize);
}

TEST(FlowStateTest, FastpassReleasesEveryRecord) {
  net::Network net{net::NetConfig{}};
  proto::FastpassArbiter arbiter(net);
  expect_records_released(net, proto::fastpass_host_factory(arbiter));
}

TEST(FlowStateTest, WindowFamilyReleasesEveryRecord) {
  net::Network net{net::NetConfig{}};
  expect_records_released(net, proto::tcp_host_factory());
}

// Exposes Host's record helpers; sends nothing.
class RecordHost final : public net::Host {
 public:
  using net::Host::Host;
  using net::Host::Role;
  struct Record : net::FlowState {
    int value = 0;
  };

  void on_flow_arrival(net::Flow&) override {}
  Record& create(net::Flow& flow, Role role) {
    return create_state<Record>(flow, role);
  }
  Record* find(std::uint64_t flow_id, Role role) const {
    return find_state<Record>(flow_id, role);
  }
  void release(net::Flow& flow, Role role) { release_state(flow, role); }

 protected:
  void on_packet(net::PacketPtr) override {}
};

struct RecordFixture {
  RecordFixture()
      : topo(net::Topology::leaf_spine(
            net, small_topo(), [](net::Network& n, int id) -> net::Host* {
              return n.add_device<RecordHost>(id);
            })),
        flow(net.create_flow(0, 5, Bytes{1'000}, TimePoint{})) {}
  RecordHost& host(int i) { return *static_cast<RecordHost*>(net.host(i)); }

  net::Network net{net::NetConfig{}};
  net::Topology topo;
  net::Flow* flow;
};

using Role = RecordHost::Role;

TEST(FlowStateTest, OnlyTheFlowsEndsFindItsRecords) {
  RecordFixture f;
  RecordHost::Record& sent = f.host(0).create(*f.flow, Role::kSender);
  RecordHost::Record& recv = f.host(5).create(*f.flow, Role::kReceiver);
  sent.value = 1;
  recv.value = 2;

  EXPECT_EQ(f.host(0).find(f.flow->id, Role::kSender), &sent);
  EXPECT_EQ(f.host(5).find(f.flow->id, Role::kReceiver), &recv);
  // Each end sees only its own role.
  EXPECT_EQ(f.host(0).find(f.flow->id, Role::kReceiver), nullptr);
  EXPECT_EQ(f.host(5).find(f.flow->id, Role::kSender), nullptr);
  // A host that is neither the src nor the dst finds nothing.
  for (int bystander : {1, 4, 7}) {
    EXPECT_EQ(f.host(bystander).find(f.flow->id, Role::kSender), nullptr);
    EXPECT_EQ(f.host(bystander).find(f.flow->id, Role::kReceiver), nullptr);
  }
  // Nor does anyone for an id the network never issued.
  EXPECT_EQ(f.host(0).find(f.flow->id + 1, Role::kSender), nullptr);

  // A bystander's release leaves the ends' records alone.
  f.host(1).release(*f.flow, Role::kSender);
  f.host(1).release(*f.flow, Role::kReceiver);
  EXPECT_EQ(f.host(0).find(f.flow->id, Role::kSender), &sent);
  EXPECT_EQ(f.host(5).find(f.flow->id, Role::kReceiver), &recv);

  // A released record is gone, and its slot can be filled again.
  f.host(0).release(*f.flow, Role::kSender);
  EXPECT_EQ(f.host(0).find(f.flow->id, Role::kSender), nullptr);
  EXPECT_EQ(f.host(0).create(*f.flow, Role::kSender).value, 0);
}

TEST(FlowStateDeathTest, RecordsAreCreatedOnceAndOnlyAtTheFlowsEnds) {
  RecordFixture f;
  EXPECT_DEATH(f.host(1).create(*f.flow, Role::kSender),
               "flow record created off its flow's end");
  EXPECT_DEATH(f.host(0).create(*f.flow, Role::kReceiver),
               "flow record created off its flow's end");
  f.host(0).create(*f.flow, Role::kSender);
  EXPECT_DEATH(f.host(0).create(*f.flow, Role::kSender),
               "flow record created twice");
}

}  // namespace
}  // namespace dcpim
