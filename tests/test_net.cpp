// Unit/integration tests for the network substrate: port queueing features
// (priorities, drops, ECN, trimming, Aeolus, PFC, loss injection),
// topologies, routing, and oracle FCTs.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "net/topology.h"

namespace dcpim::net {
namespace {

/// Receiver that records raw packet arrivals.
class SinkHost : public Host {
 public:
  using Host::Host;
  void on_flow_arrival(Flow&) override {}
  std::vector<PacketPtr> received;
  std::vector<TimePoint> arrival_times;

  PacketPtr make_raw(int dst, Bytes size, std::uint8_t prio, bool control) {
    auto p = std::make_unique<Packet>();
    p->src = host_id();
    p->dst = dst;
    p->size = size;
    p->payload = control ? Bytes{} : size - Bytes{40};
    p->priority = prio;
    p->control = control;
    return p;
  }
  void inject(PacketPtr p) { send(std::move(p)); }

 protected:
  void on_packet(PacketPtr p) override {
    arrival_times.push_back(network().sim().now());
    received.push_back(std::move(p));
  }
};

/// Sender that blasts all packets of a flow immediately; receiver side uses
/// the shared reassembly helper (oracle-FCT comparison).
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

template <typename HostT>
Topology::HostFactory factory_of() {
  return [](Network& net, int id) -> Host* {
    return net.add_device<HostT>(id);
  };
}

/// Two hosts on one switch; returns pointers via out-params.
template <typename HostT = SinkHost>
struct TwoHostFixture {
  explicit TwoHostFixture(PortConfig link, NetConfig ncfg = {}) : net(ncfg) {
    a = net.add_device<HostT>(0);
    b = net.add_device<HostT>(1);
    sw = net.add_device<Switch>("sw");
    Network::connect(*a, *sw, link);
    Network::connect(*b, *sw, link);
    sw->add_route(0, 0);
    sw->add_route(1, 1);
  }
  Network net;
  HostT* a;
  HostT* b;
  Switch* sw;
};

PortConfig fast_link() {
  PortConfig cfg;
  cfg.rate = 100 * kGbps;
  cfg.propagation = ns(200);
  cfg.buffer_bytes = 500 * kKB;
  return cfg;
}

TEST(PortTest, DeliversAfterSerializationPropagationAndLatency) {
  TwoHostFixture f(fast_link());
  f.a->inject(f.a->make_raw(1, Bytes{1500}, 2, false));
  f.net.sim().run();
  ASSERT_EQ(f.b->received.size(), 1u);
  // host->switch: ser(1500)=120ns + prop 200ns + switch 450ns;
  // switch->host: 120 + 200 + host latency 500ns = 1590ns total.
  EXPECT_EQ(f.b->arrival_times[0],
            TimePoint(ns(120 + 200 + 450 + 120 + 200 + 500)));
}

TEST(PortTest, StrictPriorityOvertakesInQueue) {
  TwoHostFixture f(fast_link());
  // Fill the NIC with low-priority packets, then inject one high-priority.
  for (int i = 0; i < 10; ++i) f.a->inject(f.a->make_raw(1, Bytes{1500}, 3, false));
  f.a->inject(f.a->make_raw(1, Bytes{64}, 0, true));
  f.net.sim().run();
  ASSERT_EQ(f.b->received.size(), 11u);
  // The control packet was enqueued last but (after the in-flight packet)
  // transmits first: it must not arrive last.
  EXPECT_TRUE(f.b->received[0]->control || f.b->received[1]->control);
}

TEST(PortTest, SharedBufferDropsDataWhenFull) {
  PortConfig link = fast_link();
  link.buffer_bytes = Bytes{3 * 1540};  // room for ~3 data packets
  TwoHostFixture f(link);
  for (int i = 0; i < 10; ++i) f.a->inject(f.a->make_raw(1, Bytes{1540}, 2, false));
  f.net.sim().run();
  EXPECT_LT(f.b->received.size(), 10u);
  EXPECT_GT(f.net.total_drops(), 0u);
}

TEST(PortTest, ControlHasOwnBufferBudget) {
  PortConfig link = fast_link();
  link.buffer_bytes = Bytes{2 * 1540};
  TwoHostFixture f(link);
  // Saturate the data budget, then send control packets — none may drop.
  for (int i = 0; i < 20; ++i) f.a->inject(f.a->make_raw(1, Bytes{1540}, 2, false));
  for (int i = 0; i < 20; ++i) f.a->inject(f.a->make_raw(1, Bytes{64}, 0, true));
  f.net.sim().run();
  int control_received = 0;
  for (const auto& p : f.b->received) control_received += p->control;
  EXPECT_EQ(control_received, 20);
}

TEST(PortTest, EcnMarksAboveThreshold) {
  PortConfig link = fast_link();
  link.ecn_threshold = Bytes{2 * 1540};
  TwoHostFixture f(link);
  for (int i = 0; i < 10; ++i) f.a->inject(f.a->make_raw(1, Bytes{1540}, 2, false));
  f.net.sim().run();
  int marked = 0;
  for (const auto& p : f.b->received) marked += p->ecn_ce;
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 10);  // first packets sail through unmarked
}

TEST(PortTest, TrimmingConvertsOverflowToHeaders) {
  PortConfig link = fast_link();
  link.trim_enable = true;
  link.trim_queue_cap = Bytes{2 * 1540};
  TwoHostFixture f(link);
  for (int i = 0; i < 10; ++i) f.a->inject(f.a->make_raw(1, Bytes{1540}, 2, false));
  f.net.sim().run();
  ASSERT_EQ(f.b->received.size(), 10u);  // nothing dropped
  int trimmed = 0;
  for (const auto& p : f.b->received) {
    if (p->trimmed) {
      ++trimmed;
      EXPECT_EQ(p->size, net::kTrimHeaderSize);
      EXPECT_EQ(p->payload, Bytes{});
      EXPECT_EQ(p->priority, 0);
    }
  }
  EXPECT_GT(trimmed, 0);
  EXPECT_EQ(f.net.total_trims(), static_cast<std::uint64_t>(trimmed));
}

TEST(PortTest, AeolusDropsOnlyUnscheduledAboveThreshold) {
  PortConfig link = fast_link();
  link.aeolus_threshold = Bytes{2 * 1540};
  TwoHostFixture f(link);
  for (int i = 0; i < 6; ++i) {
    auto p = f.a->make_raw(1, Bytes{1540}, 2, false);
    p->unscheduled = true;
    f.a->inject(std::move(p));
  }
  for (int i = 0; i < 6; ++i) f.a->inject(f.a->make_raw(1, Bytes{1540}, 2, false));
  f.net.sim().run();
  int unsched = 0, sched = 0;
  for (const auto& p : f.b->received) (p->unscheduled ? unsched : sched)++;
  EXPECT_LT(unsched, 6);  // some unscheduled dropped
  EXPECT_EQ(sched, 6);    // every scheduled packet survived
}

TEST(PortTest, LossInjectionDropsApproximateFraction) {
  PortConfig link = fast_link();
  link.loss_rate = 0.5;
  TwoHostFixture f(link);
  for (int i = 0; i < 400; ++i) f.a->inject(f.a->make_raw(1, Bytes{200}, 2, false));
  f.net.sim().run();
  // Two lossy hops (host->switch, switch->host): expect ~25% survival.
  EXPECT_GT(f.b->received.size(), 40u);
  EXPECT_LT(f.b->received.size(), 180u);
}

TEST(PortTest, PausedPortSendsOnlyControl) {
  TwoHostFixture f(fast_link());
  f.a->nic()->set_paused(true);
  f.a->inject(f.a->make_raw(1, Bytes{1500}, 2, false));
  f.a->inject(f.a->make_raw(1, Bytes{64}, 0, true));
  f.net.sim().run(TimePoint(us(100)));
  ASSERT_EQ(f.b->received.size(), 1u);
  EXPECT_TRUE(f.b->received[0]->control);
  f.a->nic()->set_paused(false);
  f.net.sim().run(TimePoint(us(200)));
  EXPECT_EQ(f.b->received.size(), 2u);
}

TEST(PortTest, PausedPortStillSendsPriorityZero) {
  // PFC pauses every priority but 0, whatever the packet is: a priority-0
  // data packet goes out alongside control, and the rest wait.
  TwoHostFixture f(fast_link());
  f.a->nic()->set_paused(true);
  PacketPtr data0 = f.a->make_raw(1, Bytes{1500}, 0, false);
  data0->seq = 7;
  f.a->inject(f.a->make_raw(1, Bytes{1500}, 3, false));
  f.a->inject(std::move(data0));
  f.a->inject(f.a->make_raw(1, Bytes{64}, 0, true));
  f.net.sim().run(TimePoint(us(100)));
  ASSERT_EQ(f.b->received.size(), 2u);
  EXPECT_FALSE(f.b->received[0]->control);
  EXPECT_EQ(f.b->received[0]->seq, 7u);
  EXPECT_TRUE(f.b->received[1]->control);
  EXPECT_EQ(f.a->nic()->queued_bytes(3), Bytes{1500});
}

TEST(PortTest, PauseEndResumesHighestPriorityFirst) {
  TwoHostFixture f(fast_link());
  f.a->nic()->set_paused(true);
  for (const std::uint8_t prio : {5, 3, 7, 1, 3}) {
    f.a->inject(f.a->make_raw(1, Bytes{1500}, prio, false));
  }
  f.net.sim().run(TimePoint(us(50)));
  EXPECT_TRUE(f.b->received.empty());
  EXPECT_FALSE(f.a->nic()->busy());
  f.a->nic()->set_paused(false);
  f.net.sim().run();
  std::vector<int> order;
  for (const auto& p : f.b->received) order.push_back(p->priority);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 3, 5, 7}));
  EXPECT_EQ(f.a->nic()->queued_bytes(), Bytes{});
}

PacketPtr seq_packet(std::uint32_t seq) {
  PacketPtr p = std::make_unique<Packet>();
  p->seq = seq;
  return p;
}

TEST(PacketRingTest, FifoAcrossWrapAndGrowth) {
  Port::PacketRing ring;
  EXPECT_TRUE(ring.empty());
  std::uint32_t next_in = 0;
  std::uint32_t next_out = 0;
  for (int i = 0; i < 3; ++i) ring.push(seq_packet(next_in++));
  for (int i = 0; i < 2; ++i) EXPECT_EQ(ring.pop()->seq, next_out++);
  // The first ring holds 4: these pushes wrap its tail, then grow it.
  for (int i = 0; i < 7; ++i) ring.push(seq_packet(next_in++));
  EXPECT_EQ(ring.size(), 8u);
  while (!ring.empty()) EXPECT_EQ(ring.pop()->seq, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(PortTest, QueuesKeepFifoAndPriorityAcrossRingWrapAndGrowth) {
  TwoHostFixture f(fast_link());
  auto send = [&f](std::uint32_t seq, std::uint8_t prio) {
    PacketPtr p = f.a->make_raw(1, Bytes{1500}, prio, false);
    p->seq = seq;
    f.a->inject(std::move(p));
  };
  // 1500 B serialize in 120 ns. Seq 0 starts at once and seq 1 at 120 ns,
  // so the priority-3 ring has popped twice when 130 ns brings five more
  // (its tail wraps, then it grows) and three priority-2 packets.
  for (std::uint32_t seq = 0; seq < 4; ++seq) send(seq, 3);
  f.net.sim().schedule_at(TimePoint(ns(130)), [&send]() {
    for (std::uint32_t seq = 4; seq < 9; ++seq) send(seq, 3);
    for (std::uint32_t seq = 100; seq < 103; ++seq) send(seq, 2);
  });
  f.net.sim().run();
  std::vector<std::uint32_t> order;
  for (const auto& p : f.b->received) order.push_back(p->seq);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 100, 101, 102, 2, 3, 4,
                                               5, 6, 7, 8}));
}

TEST(PortTest, BackToBackPacketsArriveAtDequeuePlusSerPropIngress) {
  // Propagation (20 us) dwarfs serialization (120 ns), so all 64 packets
  // are in flight on the NIC's link at once.
  PortConfig link = fast_link();
  link.propagation = us(20);
  TwoHostFixture f(link);
  constexpr int kPackets = 64;
  for (int i = 0; i < kPackets; ++i) {
    PacketPtr p = f.a->make_raw(1, Bytes{1500}, 2, false);
    p->seq = static_cast<std::uint32_t>(i);
    f.a->inject(std::move(p));
  }
  f.net.sim().run();
  ASSERT_EQ(f.b->received.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(f.b->received[k]->seq, k);
    // Dequeued at the NIC at i * 120 ns; each hop adds ser 120 ns + prop
    // 20 us + the receiver's ingress (switch 450 ns, host 500 ns).
    EXPECT_EQ(f.b->arrival_times[k],
              TimePoint(ns(120 * i + (120 + 20000 + 450) +
                           (120 + 20000 + 500))));
  }
  // Each arrival is queued when its serialization ends, so all 64 are
  // queued at once when the last one leaves the NIC (its port is idle by
  // then, and the first has not reached the switch).
  EXPECT_EQ(f.net.sim().peak_pending(), static_cast<std::size_t>(kPackets));
}

/// Two back-to-back packets a -> switch -> b over 2 us links. The second
/// one's switch-to-b arrival (at `second`) is scheduled when the switch
/// finishes serializing it (2810 ns), while the first packet is still on
/// that link (until 5190 ns). Returns how many packets b had received when
/// a callback scheduled at simulated time `scheduled_at` for the same
/// picosecond as that arrival ran.
std::size_t received_at_second_arrival(TimePoint scheduled_at) {
  PortConfig link = fast_link();
  link.propagation = us(2);
  TwoHostFixture f(link);
  for (int i = 0; i < 2; ++i) {
    f.a->inject(f.a->make_raw(1, Bytes{1500}, 2, false));
  }
  const TimePoint second(ns(120 + (120 + 2000 + 450) + (120 + 2000 + 500)));
  std::size_t seen = 0;
  f.net.sim().schedule_at(scheduled_at, [&]() {
    f.net.sim().schedule_at(second, [&]() { seen = f.b->received.size(); });
  });
  f.net.sim().run();
  EXPECT_EQ(f.b->arrival_times.at(1), second);
  return seen;
}

TEST(PortTest, ArrivalReservedBeforeASameInstantCallbackFiresFirst) {
  EXPECT_EQ(received_at_second_arrival(TimePoint(ns(3000))), 2u);
  EXPECT_EQ(received_at_second_arrival(TimePoint(ns(5200))), 2u);
}

TEST(PortTest, CallbackScheduledBeforeAnArrivalsReservationFiresFirst) {
  EXPECT_EQ(received_at_second_arrival(TimePoint{}), 1u);
  EXPECT_EQ(received_at_second_arrival(TimePoint(ns(2800))), 1u);
}

TEST(PortTest, TxTimeFollowsRateRewrites) {
  // tx_time uses whole picoseconds per byte for its rate; a rate written
  // through set_rate() (as degrade faults do) must take effect, also one
  // whose byte time is fractional.
  TwoHostFixture f(fast_link());
  Port& nic = *f.a->nic();
  const Bytes sizes[] = {Bytes{1}, Bytes{64}, Bytes{1500}, 4 * kMB};
  for (const BitsPerSec rate : {gbps(100), gbps(30), gbps(400), gbps(7)}) {
    nic.set_rate(rate);
    for (const Bytes b : sizes) {
      EXPECT_EQ(nic.tx_time(b), serialization_time(b, rate))
          << b << " at " << rate;
    }
  }
}

TEST(PortTest, TxCountersChangeAtSerializationEnd) {
  TwoHostFixture f(fast_link());
  Port& nic = *f.a->nic();
  f.a->inject(f.a->make_raw(1, Bytes{1500}, 2, false));
  // Dequeued at once: busy, serialization time booked, nothing sent yet.
  EXPECT_TRUE(nic.busy());
  EXPECT_EQ(nic.busy_time, ns(120));
  EXPECT_EQ(nic.tx_bytes, Bytes{});
  EXPECT_EQ(nic.tx_packets, PacketCount{});
  f.net.sim().run(TimePoint(ns(119)));
  EXPECT_TRUE(nic.busy());
  EXPECT_EQ(nic.tx_packets, PacketCount{});
  f.net.sim().run(TimePoint(ns(120)));
  EXPECT_FALSE(nic.busy());
  EXPECT_EQ(nic.tx_bytes, Bytes{1500});
  EXPECT_EQ(nic.tx_packets, PacketCount{1});
  EXPECT_TRUE(f.b->received.empty());  // still propagating
}

TEST(PortTest, TeardownDrainsPortRingsIntoLivePool) {
  // Network declares its data-packet counters before the simulator and the
  // devices, so the packets a stopped run leaves queued, serializing and in
  // flight are counted into a live ledger when the fixture dies (the
  // sanitizer lane checks it).
  TwoHostFixture f(fast_link());
  for (int i = 0; i < 6; ++i) {
    PacketPtr p = f.net.count_data_packet(new Packet());
    p->src = 0;
    p->dst = 1;
    p->size = Bytes{1500};
    p->payload = Bytes{1460};
    p->priority = 2;
    f.a->inject(std::move(p));
  }
  f.net.sim().run(TimePoint(ns(250)));
  const Port& nic = *f.a->nic();
  EXPECT_GT(nic.queued_bytes(), Bytes{});  // queued
  EXPECT_TRUE(nic.busy());                 // serializing
  EXPECT_EQ(nic.tx_packets, PacketCount{2});  // in flight, not yet arrived
  EXPECT_TRUE(f.b->received.empty());
  EXPECT_EQ(f.net.data_packets_made(), 6u);
  EXPECT_EQ(f.net.data_packets_freed(), 0u);
}

TEST(PfcTest, IngressOverflowPausesUpstreamAndResumes) {
  PortConfig link = fast_link();
  link.pfc_enable = true;
  link.pfc_pause_threshold = Bytes{5 * 1540};
  link.pfc_resume_threshold = Bytes{2 * 1540};
  // Make the switch egress toward b slow so the switch buffers build up.
  NetConfig ncfg;
  Network net(ncfg);
  auto* a = net.add_device<SinkHost>(0);
  auto* b = net.add_device<SinkHost>(1);
  auto* sw = net.add_device<Switch>("sw");
  Network::connect(*a, *sw, link);
  PortConfig slow = link;
  slow.rate = 1 * kGbps;
  Network::connect(*b, *sw, link, slow);  // switch->b at 1G
  sw->add_route(0, 0);
  sw->add_route(1, 1);
  for (int i = 0; i < 60; ++i) a->inject(a->make_raw(1, Bytes{1540}, 2, false));
  net.sim().run(TimePoint(us(5)));
  EXPECT_GT(sw->pfc_pauses_sent, 0u);
  EXPECT_TRUE(a->nic()->paused());
  net.sim().run();  // drain: everything eventually delivered, no drops
  EXPECT_EQ(b->received.size(), 60u);
  EXPECT_EQ(net.total_drops(), 0u);
  EXPECT_FALSE(a->nic()->paused());
}

TEST(PfcTest, SwitchIngressWithoutPfcKeepsItsLedgerAtZero) {
  // The same congested switch as above with PFC off: packets queue at the
  // slow egress, but no ingress is named, so the ledger never moves.
  NetConfig ncfg;
  Network net(ncfg);
  auto* a = net.add_device<SinkHost>(0);
  auto* b = net.add_device<SinkHost>(1);
  auto* sw = net.add_device<Switch>("sw");
  Network::connect(*a, *sw, fast_link());
  PortConfig slow = fast_link();
  slow.rate = 1 * kGbps;
  Network::connect(*b, *sw, fast_link(), slow);  // switch->b at 1G
  sw->add_route(0, 0);
  sw->add_route(1, 1);
  for (int i = 0; i < 20; ++i) a->inject(a->make_raw(1, Bytes{1540}, 2, false));
  net.sim().run(TimePoint(us(3)));
  EXPECT_GT(sw->ports[1]->queued_bytes(), Bytes{});
  EXPECT_EQ(sw->ingress_buffered(0), Bytes{});
  EXPECT_FALSE(sw->ingress_paused(0));
  net.sim().run();
  EXPECT_EQ(b->received.size(), 20u);
  EXPECT_EQ(sw->ingress_buffered(0), Bytes{});
  EXPECT_EQ(sw->pfc_pauses_sent, 0u);
  for (const auto& p : b->received) EXPECT_EQ(p->pfc_ingress, -1);
}

TEST(FlowRxStateTest, DedupesAndCompletes) {
  Flow flow;
  flow.id = 1;
  flow.size = Bytes{3000};
  FlowRxState st(&flow);
  EXPECT_EQ(st.total_packets(), 3u);
  EXPECT_EQ(st.on_data(0), Bytes{1460});
  EXPECT_EQ(st.on_data(0), Bytes{});  // duplicate
  EXPECT_EQ(st.on_data(2), Bytes{80});  // tail packet is short
  EXPECT_FALSE(st.complete());
  EXPECT_EQ(st.first_missing(), 1u);
  EXPECT_EQ(st.on_data(1), Bytes{1460});
  EXPECT_TRUE(st.complete());
  EXPECT_EQ(st.received_bytes(), Bytes{3000});
  EXPECT_EQ(st.first_missing(), 3u);
  EXPECT_EQ(st.on_data(99), Bytes{});  // out of range ignored
}

/// BlastHost whose receive-side helper the tests can call directly.
class AcceptHost : public BlastHost {
 public:
  using BlastHost::BlastHost;
  using Host::accept_data;
};

TEST(HostTest, RxStateExistsOnlyAtTheDestinationAfterFirstData) {
  TwoHostFixture<AcceptHost> f(fast_link());
  Flow* flow = f.net.create_flow(0, 1, Bytes{3000}, TimePoint(us(1)));
  EXPECT_EQ(f.b->find_rx_state(flow->id), nullptr);
  f.net.sim().run(TimePoint(us(1)));  // sent, nothing delivered yet
  EXPECT_EQ(f.b->find_rx_state(flow->id), nullptr);
  f.net.sim().run();
  const FlowRxState* st = f.b->find_rx_state(flow->id);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->complete());
  EXPECT_EQ(st->received_bytes(), Bytes{3000});
  EXPECT_TRUE(flow->finished());
  EXPECT_EQ(f.a->find_rx_state(flow->id), nullptr);  // the source
  EXPECT_EQ(f.b->find_rx_state(flow->id + 1), nullptr);  // no such flow
}

TEST(HostDeathTest, DataAcceptedOffItsDestinationIsChecked) {
  TwoHostFixture<AcceptHost> f(fast_link());
  Flow* flow = f.net.create_flow(0, 1, Bytes{3000}, TimePoint(us(1)));
  Packet p;
  p.flow_id = flow->id;
  EXPECT_DEATH(f.a->accept_data(p), "off its flow's dst");
}

TEST(PortDeathTest, ZeroPropagationLinkIsRejectedAtConstruction) {
  Network net{NetConfig{}};
  Switch* sw = net.add_device<Switch>("sw");
  PortConfig pc;
  pc.propagation = Time{};
  EXPECT_DEATH(sw->add_port(pc), "propagation must be positive");
}

TEST(TopologyTest, LeafSpineShapeAndMetrics) {
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;  // defaults: 9x16 hosts, 4 spines
  auto topo = Topology::leaf_spine(net, p, factory_of<SinkHost>());
  EXPECT_EQ(topo.num_hosts(), 144);
  EXPECT_EQ(net.devices().size(), 144u + 9 + 4);
  EXPECT_EQ(topo.host_rate(), 100 * kGbps);
  // Paper's setup: data RTT ~5.8us, cRTT ~5.2us, BDP ~72.5KB. Ours must be
  // in the same ballpark for the protocol dynamics to match.
  EXPECT_GT(net.max_data_rtt(), us(4));
  EXPECT_LT(net.max_data_rtt(), us(7));
  EXPECT_GT(net.bdp(), 50 * kKB);
  EXPECT_LT(net.bdp(), 90 * kKB);
  EXPECT_LT(net.max_control_rtt(), net.max_data_rtt());
}

TEST(TopologyTest, IntraRackFasterThanInterRack) {
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;
  auto topo = Topology::leaf_spine(net, p, factory_of<SinkHost>());
  // Hosts 0 and 1 share a rack; 0 and 143 do not.
  EXPECT_LT(topo.one_way_data(0, 1), topo.one_way_data(0, 143));
  EXPECT_LT(topo.oracle_fct(0, 1, Bytes{100'000}), topo.oracle_fct(0, 143, Bytes{100'000}));
}

TEST(TopologyTest, OracleFctMonotoneInSize) {
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;
  auto topo = Topology::leaf_spine(net, p, factory_of<SinkHost>());
  Time prev{};
  for (Bytes size : {Bytes{100}, Bytes{1500}, Bytes{15'000}, Bytes{150'000},
                     Bytes{1'500'000}}) {
    const Time fct = topo.oracle_fct(0, 143, size);
    EXPECT_GT(fct, prev);
    prev = fct;
  }
  // Large flows are bottleneck-dominated: 1.5MB at ~100Gbps ~ 123us+.
  EXPECT_GT(prev, us(100));
  EXPECT_LT(prev, us(200));
}

TEST(TopologyTest, SingleFlowAchievesNearOracleFct) {
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 2;
  p.spines = 2;
  auto topo = Topology::leaf_spine(net, p, factory_of<BlastHost>());
  Flow* flow = net.create_flow(0, 3, Bytes{300'000}, TimePoint{});
  net.sim().run();
  ASSERT_TRUE(flow->finished());
  const Time oracle = topo.oracle_fct(0, 3, Bytes{300'000});
  EXPECT_GE(flow->fct(), oracle);  // oracle is a lower bound
  EXPECT_LT(fratio(flow->fct(), oracle), 1.05);
}

TEST(TopologyTest, PacketSprayingUsesAllSpines) {
  NetConfig ncfg;
  ncfg.lb_policy = net::LbPolicy::kSpray;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 1;
  p.spines = 4;
  auto topo = Topology::leaf_spine(net, p, factory_of<BlastHost>());
  (void)topo;
  net.create_flow(0, 1, Bytes{600'000}, TimePoint{});
  net.sim().run();
  // Every switch-to-switch port on the forward path must have carried
  // traffic: 4 leaf->spine uplinks plus the 4 spine->leaf downlinks.
  int used_uplinks = 0;
  for (const auto& dev : net.devices()) {
    if (dev->kind() != Device::Kind::Switch) continue;
    for (const auto& port : dev->ports) {
      if (port->peer()->kind() == Device::Kind::Switch &&
          port->tx_packets > PacketCount{}) {
        ++used_uplinks;
      }
    }
  }
  EXPECT_EQ(used_uplinks, 8);
}

TEST(TopologyTest, PerFlowEcmpIsStable) {
  NetConfig ncfg;
  ncfg.lb_policy = net::LbPolicy::kEcmpFlow;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 1;
  p.spines = 4;
  auto topo = Topology::leaf_spine(net, p, factory_of<BlastHost>());
  (void)topo;
  net.create_flow(0, 1, Bytes{600'000}, TimePoint{});
  net.sim().run();
  // Exactly one uplink per leaf carries the flow.
  for (const auto& dev : net.devices()) {
    if (dev->kind() != Device::Kind::Switch) continue;
    int used = 0;
    for (const auto& port : dev->ports) {
      if (port->peer()->kind() == Device::Kind::Switch &&
          port->tx_packets > PacketCount{}) {
        ++used;
      }
    }
    if (used > 0) {
      EXPECT_EQ(used, 1);
    }
  }
}

TEST(TopologyTest, FatTreeShapeAndReachability) {
  NetConfig ncfg;
  Network net(ncfg);
  FatTreeParams p;
  p.k = 4;  // 16 hosts, 20 switches
  auto topo = Topology::fat_tree(net, p, factory_of<BlastHost>());
  EXPECT_EQ(topo.num_hosts(), 16);
  EXPECT_EQ(net.devices().size(), 16u + 4 + 8 + 8);
  // Same pod, same edge / same pod, different edge / cross pod.
  Flow* f1 = net.create_flow(0, 1, Bytes{10'000}, TimePoint{});
  Flow* f2 = net.create_flow(0, 3, Bytes{10'000}, TimePoint{});
  Flow* f3 = net.create_flow(0, 15, Bytes{10'000}, TimePoint{});
  net.sim().run();
  EXPECT_TRUE(f1->finished());
  EXPECT_TRUE(f2->finished());
  EXPECT_TRUE(f3->finished());
  EXPECT_LT(topo.one_way_data(0, 1), topo.one_way_data(0, 3));
  EXPECT_LT(topo.one_way_data(0, 3), topo.one_way_data(0, 15));
}

TEST(TopologyTest, OversubscriptionReducesBisection) {
  NetConfig ncfg;
  Network net1(ncfg), net2(ncfg);
  LeafSpineParams p;
  auto t1 = Topology::leaf_spine(net1, p, factory_of<SinkHost>());
  p.spine_rate = p.spine_rate / 2;
  auto t2 = Topology::leaf_spine(net2, p, factory_of<SinkHost>());
  // Same reachability, slower core: inter-rack data one-way grows.
  EXPECT_GE(t2.one_way_data(0, 143), t1.one_way_data(0, 143));
}

/// Every switch's routing table as text, one "name dst: ports" line per
/// (switch, destination host), the candidates as local port indices.
std::string route_table_text(const Network& net) {
  std::string out;
  for (const auto& dev : net.devices()) {
    if (dev->kind() != Device::Kind::Switch) continue;
    const auto& sw = static_cast<const Switch&>(*dev);
    for (int h = 0; h < net.num_hosts(); ++h) {
      out += dev->name() + " " + std::to_string(h) + ":";
      for (const Port* hop : sw.next_hops(h)) {
        for (std::size_t i = 0; i < dev->ports.size(); ++i) {
          if (dev->ports[i].get() == hop) out += " " + std::to_string(i);
        }
      }
      out += "\n";
    }
  }
  return out;
}

std::uint64_t fnv1a_64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(TopologyTest, RoutingTablesMatchThePinnedCandidates) {
  // The digests were taken from the routing tables of the earlier
  // nested-vector build (Switch::set_next_hops): writing the candidates
  // straight into the switch tables must not move a single entry.
  NetConfig ncfg;
  {
    Network net(ncfg);
    Topology::leaf_spine(net, LeafSpineParams{}, factory_of<SinkHost>());
    const std::string text = route_table_text(net);
    EXPECT_EQ(fnv1a_64(text), 0x1c4fa4e9bdc899b7ull);
    const auto& leaf0 = static_cast<const Switch&>(*net.devices()[0]);
    ASSERT_EQ(leaf0.name(), "leaf0");
    ASSERT_EQ(leaf0.next_hops(0).size(), 1u);
    EXPECT_EQ(leaf0.next_hops(0)[0], leaf0.ports[0].get());
    // Off-rack destinations spray over the four spine uplinks, ports 16-19.
    const auto up = leaf0.next_hops(16);
    ASSERT_EQ(up.size(), 4u);
    for (std::size_t i = 0; i < up.size(); ++i) {
      EXPECT_EQ(up[i], leaf0.ports[16 + i].get());
    }
  }
  {
    Network net(ncfg);
    LeafSpineParams p;  // Oversubscribed: spine links halved, same routes.
    p.spine_rate = p.spine_rate / 2;
    Topology::leaf_spine(net, p, factory_of<SinkHost>());
    EXPECT_EQ(fnv1a_64(route_table_text(net)), 0x1c4fa4e9bdc899b7ull);
  }
  for (const auto& [k, digest] :
       {std::pair{4, 0x2a66021737aac973ull}, std::pair{8, 0x4ee1836a6df86745ull}}) {
    SCOPED_TRACE("fat-tree k=" + std::to_string(k));
    Network net(ncfg);
    FatTreeParams p;
    p.k = k;
    Topology::fat_tree(net, p, factory_of<SinkHost>());
    EXPECT_EQ(fnv1a_64(route_table_text(net)), digest);
  }
  {
    Network net(ncfg);
    LeafSpineParams p;  // The Figure 7 testbed.
    p.racks = 2;
    p.hosts_per_rack = 16;
    p.spines = 2;
    p.host_rate = 10 * kGbps;
    p.spine_rate = 40 * kGbps;
    Topology::leaf_spine(net, p, factory_of<SinkHost>());
    EXPECT_EQ(fnv1a_64(route_table_text(net)), 0x3f8d4273b90be2c1ull);
  }
}

TEST(SwitchTest, RoutesMustBeAddedInDestinationOrder) {
  TwoHostFixture f(fast_link());
  EXPECT_DEATH(f.sw->add_route(0, 1), "destination order");
  EXPECT_DEATH(f.sw->add_route(1, 7), "not wired");
  EXPECT_DEATH((void)f.sw->next_hops(2), "outside routing table");
}

TEST(NetworkTest, FlowLifecycleAndObservers) {
  NetConfig ncfg;
  Network net(ncfg);
  LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 2;
  p.spines = 1;
  auto topo = Topology::leaf_spine(net, p, factory_of<BlastHost>());
  (void)topo;
  int completions = 0;
  Bytes payload_seen{};
  net.add_flow_observer([&](const Flow& f) {
    ++completions;
    EXPECT_TRUE(f.finished());
  });
  net.add_payload_observer([&](Bytes fresh, TimePoint) { payload_seen += fresh; });
  net.create_flow(0, 2, Bytes{50'000}, TimePoint(us(1)));
  net.create_flow(1, 3, Bytes{70'000}, TimePoint(us(2)));
  net.sim().run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(payload_seen, Bytes{120'000});
  EXPECT_EQ(net.completed_flows, 2u);
  EXPECT_EQ(net.total_payload_delivered(), Bytes{120'000});
}

TEST(NetworkTest, FlowLookupByDenseId) {
  TwoHostFixture f(fast_link());
  Flow* first = f.net.create_flow(0, 1, Bytes{1000}, TimePoint(us(1)));
  Flow* second = f.net.create_flow(1, 0, Bytes{1000}, TimePoint(us(1)));
  EXPECT_EQ(first->id, 1u);
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(f.net.flow(1), first);
  EXPECT_EQ(f.net.flow(2), second);
  EXPECT_EQ(f.net.flow(0), nullptr);
  EXPECT_EQ(f.net.flow(3), nullptr);
  EXPECT_EQ(f.net.flow(UINT64_MAX), nullptr);
}

}  // namespace
}  // namespace dcpim::net
