// PacketPool contract tests (DESIGN.md §13).
//
// Three layers:
//   * unit: acquire/release mechanics — recycling re-issues the parked
//     object from its own type's free list, reset_transient() wipes every
//     field (pristine on re-acquire; an IntPacket keeps its record capacity),
//     control packets built via make_unique convert into PacketPtr with a
//     null-pool deleter, and the disabled pool does no accounting.
//   * integration: the pool actually recycles under a real experiment and
//     the audit probe stays clean.
//   * the headline contract: pooling is behaviour-invariant — for every
//     protocol, result_fingerprint() is bit-identical with the pool on and
//     off. This is what lets a timing run attribute its speedup to the
//     allocator alone.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "harness/experiment.h"
#include "harness/report.h"
#include "net/packet.h"
#include "net/packet_pool.h"

namespace dcpim {
namespace {

using harness::ExperimentConfig;
using harness::Protocol;

TEST(PacketPoolTest, AcquireReleaseRecyclesSameObject) {
  net::PacketPool pool;
  net::PacketPtr p = pool.acquire();
  net::Packet* raw = p.get();
  EXPECT_EQ(pool.acquired(), 1u);
  EXPECT_EQ(pool.outstanding(), 1u);
  p.reset();  // deleter routes into the pool
  EXPECT_EQ(pool.released(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.parked(), 1u);

  net::PacketPtr q = pool.acquire();
  EXPECT_EQ(q.get(), raw) << "free list must re-issue the parked packet";
  EXPECT_EQ(pool.recycled(), 1u);
  EXPECT_EQ(pool.parked(), 0u);
}

TEST(PacketPoolTest, ReleaseResetsEveryTransientField) {
  net::PacketPool pool;
  net::PacketPtr p = pool.acquire();
  p->src = 3;
  p->dst = 7;
  p->flow_id = 42;
  p->size = Bytes{1500};
  p->payload = Bytes{1460};
  p->priority = 5;
  p->control = true;
  p->seq = 9;
  p->unscheduled = true;
  p->ecn_ce = true;
  p->trimmed = true;
  p->pfc_ingress = 2;
  p->created_at = TimePoint(us(5));
  p->kind = 11;
  EXPECT_FALSE(p->is_pristine());
  p.reset();
  EXPECT_EQ(pool.parked_dirty_count(), 0u);

  net::PacketPtr q = pool.acquire();
  EXPECT_TRUE(q->is_pristine())
      << "a recycled packet must be indistinguishable from Packet{}";
}

TEST(PacketPoolTest, EachFreeListHandsBackOnlyItsOwnType) {
  net::PacketPool pool;
  net::PacketPtr plain = pool.acquire();
  net::PacketPtr with_int = pool.acquire_int();
  EXPECT_FALSE(plain->collect_int);
  EXPECT_TRUE(with_int->collect_int);
  EXPECT_NE(dynamic_cast<net::IntPacket*>(with_int.get()), nullptr);
  EXPECT_EQ(dynamic_cast<net::IntPacket*>(plain.get()), nullptr);
  net::Packet* plain_raw = plain.get();
  net::Packet* int_raw = with_int.get();
  // Park the IntPacket last: a single free list would re-issue it first.
  plain.reset();
  with_int.reset();
  EXPECT_EQ(pool.parked(), 2u);

  net::PacketPtr p = pool.acquire();
  EXPECT_EQ(p.get(), plain_raw);
  EXPECT_FALSE(p->collect_int);
  net::PacketPtr q = pool.acquire_int();
  EXPECT_EQ(q.get(), int_raw);
  EXPECT_TRUE(q->collect_int);
  EXPECT_EQ(pool.recycled(), 2u);

  // With only a parked Packet, an IntPacket request allocates afresh.
  p.reset();
  net::PacketPtr fresh = pool.acquire_int();
  EXPECT_NE(fresh.get(), plain_raw);
  EXPECT_NE(dynamic_cast<net::IntPacket*>(fresh.get()), nullptr);
  EXPECT_EQ(pool.recycled(), 2u);
  EXPECT_EQ(pool.parked(), 1u);
}

TEST(PacketPoolTest, IntPacketReuseKeepsHopCapacity) {
  net::PacketPool pool;
  net::PacketPtr p = pool.acquire_int();
  auto& hops = net::packet_cast<net::IntPacket>(*p).int_hops;
  for (int i = 0; i < 5; ++i) hops.push_back(net::IntHopRecord{});
  const std::size_t capacity = hops.capacity();
  p->flow_id = 42;
  p->seq = 9;
  p->ecn_ce = true;
  net::Packet* raw = p.get();
  p.reset();
  EXPECT_EQ(pool.parked_dirty_count(), 0u);

  net::PacketPtr q = pool.acquire_int();
  ASSERT_EQ(q.get(), raw);
  const auto& reused = net::packet_cast<net::IntPacket>(*q);
  EXPECT_TRUE(reused.int_hops.empty());
  EXPECT_EQ(reused.int_hops.capacity(), capacity);
  net::Packet expected;
  expected.collect_int = true;
  EXPECT_TRUE(static_cast<const net::Packet&>(*q) == expected)
      << "apart from collect_int, a reused IntPacket is a fresh Packet{}";
}

TEST(PacketPoolTest, MakeUniqueConvertsToPacketPtrWithNullPool) {
  struct FakeControlPacket : net::Packet {
    int extra = 0;
  };
  // The factory idiom every protocol uses: make_unique of a derived type,
  // converted into PacketPtr by unique_ptr's converting constructor via
  // PacketDeleter's default_delete conversion. Destruction must plain-
  // delete (never touch a pool) or this test dies under ASan.
  net::PacketPtr p = std::make_unique<FakeControlPacket>();
  EXPECT_EQ(p.get_deleter().pool, nullptr);
  p.reset();
}

TEST(PacketPoolTest, DisabledPoolDoesNoAccounting) {
  net::PacketPool pool(/*enabled=*/false);
  {
    net::PacketPtr p = pool.acquire();
    EXPECT_EQ(p.get_deleter().pool, nullptr);
    EXPECT_TRUE(p->is_pristine());
  }
  EXPECT_EQ(pool.acquired(), 0u);
  EXPECT_EQ(pool.released(), 0u);
  EXPECT_EQ(pool.parked(), 0u);
}

TEST(PacketPoolTest, DirtyParkedPacketIsDetected) {
  // White-box check of the audit hook's teeth: a packet whose deleter
  // bypassed reset_transient() could only exist through a bug, so forge the
  // state by releasing normally and dirtying the parked packet in place.
  net::PacketPool pool;
  net::PacketPtr p = pool.acquire();
  net::Packet* raw = p.get();
  p.reset();
  EXPECT_EQ(pool.parked_dirty_count(), 0u);
  raw->ecn_ce = true;  // parked packets are pool-owned; tests may peek
  EXPECT_EQ(pool.parked_dirty_count(), 1u);
  raw->ecn_ce = false;

  // The IntPacket list is audited too, telemetry records included.
  net::PacketPtr q = pool.acquire_int();
  auto* int_raw = static_cast<net::IntPacket*>(q.get());
  q.reset();
  EXPECT_EQ(pool.parked_dirty_count(), 0u);
  int_raw->int_hops.push_back(net::IntHopRecord{});
  EXPECT_EQ(pool.parked_dirty_count(), 1u);
  int_raw->int_hops.clear();
}

ExperimentConfig small_config(Protocol p, bool pool_on) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.workload = "imc10";
  cfg.load = 0.5;
  cfg.gen_stop = TimePoint(us(150));
  cfg.measure_start = TimePoint(us(20));
  cfg.measure_end = TimePoint(us(150));
  cfg.horizon = TimePoint(ms(5));
  cfg.audit = true;
  cfg.packet_pool = pool_on;
  return cfg;
}

TEST(PacketPoolExperimentTest, PoolRecyclesAndAuditStaysClean) {
  const auto res = harness::run_experiment(small_config(Protocol::Dcpim,
                                                        /*pool_on=*/true));
  EXPECT_TRUE(res.audit.clean()) << harness::format_audit_summary(res.audit);
  EXPECT_GT(res.pool_acquired, 0u);
  EXPECT_GT(res.pool_recycled, 0u)
      << "a multi-RTT run must re-issue parked packets";
}

TEST(PacketPoolExperimentTest, PoolOffRecordsNoPoolTraffic) {
  const auto res = harness::run_experiment(small_config(Protocol::Dcpim,
                                                        /*pool_on=*/false));
  EXPECT_TRUE(res.audit.clean()) << harness::format_audit_summary(res.audit);
  EXPECT_EQ(res.pool_acquired, 0u);
  EXPECT_EQ(res.pool_recycled, 0u);
}

/// The headline contract: recycling may change allocator traffic only.
/// Every protocol's results must fingerprint bit-identically pool-on vs
/// pool-off — a stale field leaking through reset_transient(), or any
/// pool-dependent branch in the hot path, breaks this immediately.
TEST(PacketPoolExperimentTest, FingerprintIdenticalPoolOnVsOffAllProtocols) {
  const Protocol all[] = {Protocol::Dcpim, Protocol::Phost,
                          Protocol::Homa,  Protocol::HomaAeolus,
                          Protocol::Ndp,   Protocol::Hpcc,
                          Protocol::Dctcp, Protocol::Tcp};
  for (Protocol p : all) {
    SCOPED_TRACE(harness::to_string(p));
    const auto on = harness::run_experiment(small_config(p, true));
    const auto off = harness::run_experiment(small_config(p, false));
    EXPECT_EQ(harness::result_fingerprint(on),
              harness::result_fingerprint(off));
    EXPECT_GT(on.pool_acquired, 0u);
    EXPECT_EQ(off.pool_acquired, 0u);
  }
}

}  // namespace
}  // namespace dcpim
