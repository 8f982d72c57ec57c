// Data-packet ledger tests (DESIGN.md §13).
//
// Data packets are plain allocations: Host::make_data_packet counts each one
// it makes on the Network, and the PacketPtr deleter counts each free. These
// tests pin that ledger:
//   * every host family frees every data packet it made once a run drains;
//   * control packets built via make_unique carry no counter and free
//     normally;
//   * the packet-pool-hygiene probe (the ledger's audit) flags a data packet
//     held past drain;
//   * HPCC's inline INT records hold one record per egress hop, and an
//     overflow past kMaxIntHops is a CHECK failure.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/dcpim_host.h"
#include "harness/audit_probes.h"
#include "harness/report.h"
#include "net/packet.h"
#include "net/topology.h"
#include "proto/dctcp.h"
#include "proto/fastpass.h"
#include "proto/homa.h"
#include "proto/hpcc.h"
#include "proto/ndp.h"
#include "proto/phost.h"
#include "proto/tcp.h"
#include "sim/audit.h"

namespace dcpim {
namespace {

net::LeafSpineParams small_leaf_spine() {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  return p;
}

/// A few flows from one to a few packets up to several BDPs, within and
/// across racks, so every family sends unscheduled and scheduled data.
std::vector<net::Flow*> start_flows(net::Network& net) {
  std::vector<net::Flow*> flows;
  const std::pair<int, int> pairs[] = {{0, 5}, {1, 6}, {2, 3}, {7, 0},
                                       {4, 5}, {6, 1}};
  const Bytes sizes[] = {Bytes{1'000}, Bytes{9'000}, Bytes{60'000},
                         Bytes{250'000}, Bytes{3'000}, Bytes{120'000}};
  for (std::size_t i = 0; i < std::size(pairs); ++i) {
    flows.push_back(net.create_flow(pairs[i].first, pairs[i].second,
                                    sizes[i], TimePoint(us(2) * i)));
  }
  return flows;
}

struct Family {
  std::string name;
  net::LbPolicy lb;
  net::PortCustomize customize;
};

TEST(DataPacketLedgerTest, EveryHostFamilyFreesWhatItMakes) {
  const Family families[] = {
      {"dcpim", net::LbPolicy::kSpray, nullptr},
      {"ndp", net::LbPolicy::kSpray, proto::ndp_port_customize},
      {"phost", net::LbPolicy::kSpray, nullptr},
      {"homa", net::LbPolicy::kSpray, nullptr},
      {"homa_aeolus", net::LbPolicy::kSpray, proto::homa_port_customize},
      {"fastpass", net::LbPolicy::kEcmpFlow, nullptr},
      {"tcp", net::LbPolicy::kEcmpFlow, nullptr},
      {"dctcp", net::LbPolicy::kEcmpFlow,
       [](net::PortConfig& pc) { proto::dctcp_port_customize(pc, Bytes{}); }},
      {"hpcc", net::LbPolicy::kEcmpFlow, proto::hpcc_port_customize},
  };
  for (const Family& fam : families) {
    SCOPED_TRACE(fam.name);
    net::NetConfig ncfg;
    ncfg.lb_policy = fam.lb;
    net::Network net(ncfg);
    std::unique_ptr<proto::FastpassArbiter> arbiter;
    net::Topology::HostFactory factory;
    if (fam.name == "dcpim") factory = core::dcpim_host_factory({});
    if (fam.name == "ndp") factory = proto::ndp_host_factory();
    if (fam.name == "phost") factory = proto::phost_host_factory();
    if (fam.name == "homa") factory = proto::homa_host_factory(false);
    if (fam.name == "homa_aeolus") factory = proto::homa_host_factory(true);
    if (fam.name == "fastpass") {
      arbiter = std::make_unique<proto::FastpassArbiter>(net);
      factory = proto::fastpass_host_factory(*arbiter);
    }
    if (fam.name == "tcp") factory = proto::tcp_host_factory();
    if (fam.name == "dctcp") factory = proto::dctcp_host_factory();
    if (fam.name == "hpcc") factory = proto::hpcc_host_factory();
    net::LeafSpineParams p = small_leaf_spine();
    p.port_customize = fam.customize;
    const net::Topology topo = net::Topology::leaf_spine(net, p, factory);
    const std::vector<net::Flow*> flows = start_flows(net);

    net.sim().run(TimePoint(ms(5)));
    for (const net::Flow* f : flows) EXPECT_TRUE(f->finished()) << f->id;
    for (const auto& dev : net.devices()) {
      for (const auto& port : dev->ports) {
        EXPECT_EQ(port->queued_bytes(), Bytes{}) << dev->name();
      }
    }
    EXPECT_GT(net.data_packets_made(), 0u);
    EXPECT_EQ(net.data_packets_freed(), net.data_packets_made());
  }
}

TEST(DataPacketLedgerTest, MakeUniqueControlPacketsAreNotCounted) {
  struct FakeControlPacket : net::Packet {
    int extra = 0;
  };
  // The factory idiom every protocol uses: make_unique of a derived type,
  // converted into PacketPtr by unique_ptr's converting constructor via
  // PacketDeleter's default_delete conversion. The deleter carries no
  // counter and plain-deletes (the sanitizer lane checks the free).
  net::PacketPtr p = std::make_unique<FakeControlPacket>();
  EXPECT_EQ(p.get_deleter().freed, nullptr);
  p.reset();

  // A counted data packet bumps only its own Network's counter.
  net::Network net(net::NetConfig{});
  net::PacketPtr data = net.count_data_packet(new net::Packet());
  net::PacketPtr control = std::make_unique<FakeControlPacket>();
  EXPECT_EQ(net.data_packets_made(), 1u);
  control.reset();
  EXPECT_EQ(net.data_packets_freed(), 0u);
  data.reset();
  EXPECT_EQ(net.data_packets_freed(), 1u);
}

/// Sends every packet of a flow at once; the receiver accepts each, and
/// keeps the last one it received while `hold` is set.
class HoldingHost : public net::Host {
 public:
  using Host::Host;
  void on_flow_arrival(net::Flow& flow) override {
    for (std::uint32_t seq = 0; seq < flow.seq_count(); ++seq) {
      send(make_data_packet(flow, {.seq = seq, .priority = 2}));
    }
  }
  bool hold = false;
  net::PacketPtr held;

 protected:
  void on_packet(net::PacketPtr p) override {
    accept_data(*p);
    if (hold) held = std::move(p);
  }
};

std::uint64_t probe_violations(const sim::AuditSummary& s,
                               const std::string& name) {
  for (const auto& probe : s.probes) {
    if (probe.name == name) return probe.violations;
  }
  ADD_FAILURE() << "no probe named " << name;
  return 0;
}

TEST(DataPacketLedgerTest, DataPacketHeldPastDrainIsAViolation) {
  for (const bool hold : {false, true}) {
    SCOPED_TRACE(hold ? "held" : "released");
    net::Network net(net::NetConfig{});
    const net::Topology topo = net::Topology::leaf_spine(
        net, small_leaf_spine(), [](net::Network& n, int id) -> net::Host* {
          return n.add_device<HoldingHost>(id);
        });
    auto* receiver = static_cast<HoldingHost*>(net.host(5));
    receiver->hold = hold;
    net::Flow* flow = net.create_flow(0, 5, Bytes{30'000}, TimePoint{});

    sim::Auditor auditor;
    harness::install_standard_probes(auditor, net);
    auditor.attach(net.sim());
    net.sim().run();
    auditor.sweep(net.sim().now());
    ASSERT_TRUE(flow->finished());
    ASSERT_EQ(net.sim().pending(), 0u);

    const sim::AuditSummary summary = auditor.summary();
    if (!hold) {
      EXPECT_TRUE(summary.clean()) << harness::format_audit_summary(summary);
      EXPECT_EQ(net.data_packets_freed(), net.data_packets_made());
      continue;
    }
    EXPECT_GT(probe_violations(summary, "packet-pool-hygiene"), 0u)
        << harness::format_audit_summary(summary);
    EXPECT_EQ(summary.violations_total,
              probe_violations(summary, "packet-pool-hygiene"))
        << "only the ledger probe sees a held packet";
    EXPECT_EQ(net.data_packets_made() - net.data_packets_freed(), 1u);
    receiver->held.reset();
    EXPECT_EQ(net.data_packets_freed(), net.data_packets_made());
  }
}

TEST(DataPacketLedgerDeathTest, IntRecordsPastCapacityAbort) {
  net::IntHops hops;
  for (std::size_t i = 0; i < net::kMaxIntHops; ++i) {
    hops.add(net::IntHopRecord{});
  }
  EXPECT_EQ(hops.size(), net::kMaxIntHops);
  EXPECT_DEATH(hops.add(net::IntHopRecord{}),
               "INT records overflow kMaxIntHops");
}

/// An HPCC host that records how many INT records each ACK echoes, by
/// flow destination.
class EchoCountingHpccHost : public proto::HpccHost {
 public:
  using HpccHost::HpccHost;
  std::map<int, std::set<std::size_t>> echo_sizes;

 protected:
  void on_ack_event(WFlow& f, const proto::AckPacket& ack) override {
    echo_sizes[ack.src].insert(ack.int_echo.size());
    HpccHost::on_ack_event(f, ack);
  }
};

TEST(DataPacketLedgerTest, HpccRunStoresOneIntRecordPerEgressHop) {
  // A k=4 fat-tree: host 1 shares host 0's edge switch, host 2 its pod,
  // and host 15 sits in another pod — 2, 4 and 6 egress ports (the longest
  // path any topology here builds).
  net::NetConfig ncfg;
  ncfg.lb_policy = net::LbPolicy::kEcmpFlow;
  net::Network net(ncfg);
  net::FatTreeParams p;
  p.k = 4;
  p.port_customize = proto::hpcc_port_customize;
  const net::Topology topo = net::Topology::fat_tree(
      net, p, [](net::Network& n, int id) -> net::Host* {
        return n.add_device<EchoCountingHpccHost>(id);
      });
  for (const int dst : {1, 2, 15}) {
    net.create_flow(0, dst, Bytes{40'000}, TimePoint{});
  }
  net.sim().run(TimePoint(ms(2)));
  EXPECT_EQ(net.completed_flows, 3u);
  EXPECT_EQ(net.data_packets_freed(), net.data_packets_made());

  const auto& sizes = static_cast<EchoCountingHpccHost*>(net.host(0))
                          ->echo_sizes;
  const std::map<int, std::set<std::size_t>> expected = {
      {1, {2}}, {2, {4}}, {15, {6}}};
  EXPECT_EQ(sizes, expected);
}

}  // namespace
}  // namespace dcpim
