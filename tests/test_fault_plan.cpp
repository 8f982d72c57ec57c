// FaultPlan + FaultInjector unit tests: the `--faults` spec grammar
// (parse/round-trip/errors), random plan generation bounds and determinism,
// and the injector's concrete fault mechanics (blackhole, stall, loss
// save/restore, wildcard resolution) on a small leaf-spine topology.
// Satellite coverage: the per-port fault RNG stream isolation that keeps
// loss draws out of the workload RNG (DESIGN.md §11).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/dcpim_host.h"
#include "harness/fault_injector.h"
#include "net/switch.h"
#include "net/topology.h"
#include "sim/fault/fault_plan.h"

namespace dcpim {
namespace {

namespace fault = sim::fault;

// ---- time literals ----------------------------------------------------------

TEST(FaultSpecTest, TimeLiterals) {
  EXPECT_EQ(fault::parse_time_literal("100us"), us(100));
  EXPECT_EQ(fault::parse_time_literal("1.5ms"), us(1500));
  EXPECT_EQ(fault::parse_time_literal("250ns"), ns(250));
  EXPECT_EQ(fault::parse_time_literal("7ps"), ps(7));
  EXPECT_EQ(fault::parse_time_literal("2s"), ms(2000));
  EXPECT_EQ(fault::parse_time_literal(" 10us "), us(10));
}

TEST(FaultSpecTest, BadTimeLiteralsThrow) {
  EXPECT_THROW(fault::parse_time_literal(""), std::invalid_argument);
  EXPECT_THROW(fault::parse_time_literal("10"), std::invalid_argument);
  EXPECT_THROW(fault::parse_time_literal("us"), std::invalid_argument);
  EXPECT_THROW(fault::parse_time_literal("10lightyears"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_time_literal("1.2.3us"), std::invalid_argument);
}

// ---- spec parsing -----------------------------------------------------------

TEST(FaultSpecTest, ParsesEveryVerb) {
  const fault::FaultPlan plan = fault::parse_fault_spec(
      "flap:leaf0.2@30us:40us;loss:spine*:0.25@50us:20us;"
      "drop:token@60us:10us;drop:grant:0.5@60us:10us;"
      "blackhole:spine1@80us:5us;stall:host3@90us:15us;rand:3@20us:200us");
  ASSERT_EQ(plan.events.size(), 7u);

  const fault::FaultEvent& flap = plan.events[0];
  EXPECT_EQ(flap.kind, fault::FaultKind::LinkFlap);
  EXPECT_EQ(flap.target, "leaf0");
  EXPECT_EQ(flap.port, 2);
  EXPECT_EQ(flap.start, TimePoint(us(30)));
  EXPECT_EQ(flap.duration, us(40));
  EXPECT_EQ(flap.end(), TimePoint(us(70)));

  const fault::FaultEvent& loss = plan.events[1];
  EXPECT_EQ(loss.kind, fault::FaultKind::LossWindow);
  EXPECT_EQ(loss.target, "spine*");
  EXPECT_EQ(loss.port, -1);
  EXPECT_DOUBLE_EQ(loss.rate, 0.25);

  EXPECT_EQ(plan.events[2].kind, fault::FaultKind::TargetedDrop);
  EXPECT_EQ(plan.events[2].packet_kind, "token");
  EXPECT_DOUBLE_EQ(plan.events[2].rate, 1.0);  // default: drop all
  EXPECT_EQ(plan.events[3].packet_kind, "grant");
  EXPECT_DOUBLE_EQ(plan.events[3].rate, 0.5);

  EXPECT_EQ(plan.events[4].kind, fault::FaultKind::Blackhole);
  EXPECT_EQ(plan.events[4].target, "spine1");
  EXPECT_EQ(plan.events[5].kind, fault::FaultKind::HostStall);
  EXPECT_EQ(plan.events[5].target, "host3");
  EXPECT_EQ(plan.events[6].kind, fault::FaultKind::RandomBurst);
  EXPECT_EQ(plan.events[6].count, 3);
}

TEST(FaultSpecTest, RoundTripsThroughToSpec) {
  const std::string spec =
      "flap:leaf0.2@30us:40us;loss:spine*:0.25@50us:20us;"
      "drop:token@60us:10us;drop:grant:0.5@60us:10us;"
      "blackhole:spine1@80us:5us;stall:host3@90us:15us;rand:3@20us:200us";
  const std::string canonical = fault::to_spec(fault::parse_fault_spec(spec));
  EXPECT_EQ(canonical, spec);
  // Canonical form is a fixed point.
  EXPECT_EQ(fault::to_spec(fault::parse_fault_spec(canonical)), canonical);
}

TEST(FaultSpecTest, ParsesGrayDegradeSrlg) {
  const fault::FaultPlan plan = fault::parse_fault_spec(
      "gray:leaf0.2:0.01@30us:40us;degrade:spine*:0.25@50us:20us;"
      "srlg:riska=leaf0+spine1.0@60us:10us");
  ASSERT_EQ(plan.events.size(), 3u);

  const fault::FaultEvent& gray = plan.events[0];
  EXPECT_EQ(gray.kind, fault::FaultKind::GrayLoss);
  EXPECT_EQ(gray.target, "leaf0");
  EXPECT_EQ(gray.port, 2);
  EXPECT_DOUBLE_EQ(gray.rate, 0.01);

  const fault::FaultEvent& degrade = plan.events[1];
  EXPECT_EQ(degrade.kind, fault::FaultKind::Degrade);
  EXPECT_EQ(degrade.target, "spine*");
  EXPECT_DOUBLE_EQ(degrade.rate, 0.25);

  const fault::FaultEvent& srlg = plan.events[2];
  EXPECT_EQ(srlg.kind, fault::FaultKind::Srlg);
  EXPECT_EQ(srlg.target, "riska");  // group name, not a device
  ASSERT_EQ(srlg.members.size(), 2u);
  EXPECT_EQ(srlg.members[0], "leaf0");
  EXPECT_EQ(srlg.members[1], "spine1.0");
}

TEST(FaultSpecTest, SrlgAcceptsCommaMembersButCanonicalizesToPlus) {
  // ',' parses (hand-written specs) but the canonical form is '+', so a
  // canonical spec survives campaign sweep-axis splitting on commas.
  const fault::FaultPlan plan =
      fault::parse_fault_spec("srlg:power=leaf0,leaf1@10us:5us");
  ASSERT_EQ(plan.events.size(), 1u);
  ASSERT_EQ(plan.events[0].members.size(), 2u);
  const std::string canonical = fault::to_spec(plan);
  EXPECT_EQ(canonical, "srlg:power=leaf0+leaf1@10us:5us");
  EXPECT_EQ(fault::to_spec(fault::parse_fault_spec(canonical)), canonical);
}

TEST(FaultSpecTest, GrayDegradeSrlgRoundTrip) {
  const std::string spec =
      "gray:leaf0.2:0.01@30us:40us;degrade:spine*:0.25@50us:20us;"
      "srlg:riska=leaf0+spine1.0@60us:10us";
  EXPECT_EQ(fault::to_spec(fault::parse_fault_spec(spec)), spec);
}

TEST(FaultSpecTest, ToleratesWhitespaceAndEmptyItems) {
  const fault::FaultPlan plan =
      fault::parse_fault_spec("  flap:leaf0@1us:2us ; ;stall:host0@3us:4us;");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::LinkFlap);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::HostStall);
  EXPECT_TRUE(fault::parse_fault_spec("").empty());
}

TEST(FaultSpecTest, RejectsMalformedItems) {
  const char* bad[] = {
      "flap",                           // no args at all
      "flap:leaf0",                     // missing window
      "flap:leaf0@30us",                // window missing duration
      "flap:leaf0@30us:0us",            // zero duration
      "flap:@30us:1us",                 // empty target
      "loss:leaf0@30us:1us",            // loss without a rate
      "loss:leaf0:1.5@30us:1us",        // rate > 1
      "loss:leaf0:0@30us:1us",          // rate == 0
      "drop:@30us:1us",                 // empty packet kind
      "blackhole:spine0.1@30us:1us",    // blackhole takes a device
      "stall:host0.0@30us:1us",         // stall takes a host
      "rand:0@30us:1us",                // count must be > 0
      "explode:leaf0@30us:1us",         // unknown verb
      "flap:leaf0@bogus:1us",           // malformed start time
      "gray:leaf0@30us:1us",            // gray without a rate
      "gray:leaf0:0@30us:1us",          // gray rate == 0
      "degrade:leaf0:0@30us:1us",       // fraction must be strictly > 0
      "degrade:leaf0:1@30us:1us",       // fraction of 1 is a no-op
      "degrade:leaf0:1.5@30us:1us",     // fraction > 1
      "degrade:leaf0@30us:1us",         // degrade without a fraction
      "srlg:riska=@30us:1us",           // empty member list
      "srlg:riska=leaf0++leaf1@30us:1us",  // empty member inside the list
      "srlg:=leaf0@30us:1us",           // missing group name
      "srlg:riska=leaf0@30us:0us",      // zero duration
  };
  for (const char* spec : bad) {
    EXPECT_THROW(fault::parse_fault_spec(spec), std::invalid_argument)
        << "spec '" << spec << "' should have been rejected";
  }
}

TEST(FaultSpecTest, DescribeMentionsKindAndWindow) {
  const fault::FaultPlan plan =
      fault::parse_fault_spec("drop:token:0.5@60us:10us");
  const std::string text = fault::describe(plan.events[0]);
  EXPECT_NE(text.find("token"), std::string::npos);
  EXPECT_NE(text.find("60us"), std::string::npos);
  EXPECT_NE(text.find("10us"), std::string::npos);
}

TEST(FaultSpecTest, FaultWindowsSortedByStart) {
  const fault::FaultPlan plan = fault::parse_fault_spec(
      "stall:host0@90us:15us;flap:leaf0@30us:40us;blackhole:spine1@80us:5us");
  const auto windows = fault::fault_windows(plan);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start, TimePoint(us(30)));
  EXPECT_EQ(windows[1].start, TimePoint(us(80)));
  EXPECT_EQ(windows[2].start, TimePoint(us(90)));
  EXPECT_EQ(windows[2].end, TimePoint(us(105)));
}

// ---- random plans -----------------------------------------------------------

TEST(RandomFaultPlanTest, SameSeedSamePlan) {
  const fault::RandomFaultOptions opts;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(fault::to_spec(fault::random_fault_plan(opts, seed)),
              fault::to_spec(fault::random_fault_plan(opts, seed)))
        << "seed " << seed;
  }
}

TEST(RandomFaultPlanTest, SeedsDiversifyPlans) {
  const fault::RandomFaultOptions opts;
  int distinct = 0;
  const std::string first = fault::to_spec(fault::random_fault_plan(opts, 1));
  for (std::uint64_t seed = 2; seed <= 10; ++seed) {
    if (fault::to_spec(fault::random_fault_plan(opts, seed)) != first) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0);
}

TEST(RandomFaultPlanTest, EventsRespectBounds) {
  fault::RandomFaultOptions opts;
  opts.min_events = 2;
  opts.max_events = 5;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const fault::FaultPlan plan = fault::random_fault_plan(opts, seed);
    EXPECT_GE(plan.events.size(), 2u);
    EXPECT_LE(plan.events.size(), 5u);
    for (const fault::FaultEvent& ev : plan.events) {
      EXPECT_NE(ev.kind, fault::FaultKind::RandomBurst);
      EXPECT_GE(ev.start, opts.earliest);
      EXPECT_LT(ev.start, opts.earliest + opts.span);
      EXPECT_GE(ev.duration, opts.min_duration);
      EXPECT_LE(ev.duration, opts.max_duration);
      EXPECT_LE(ev.rate, 1.0);
      if (ev.kind == fault::FaultKind::LossWindow ||
          ev.kind == fault::FaultKind::TargetedDrop) {
        EXPECT_LE(ev.rate, opts.max_loss_rate);
        EXPECT_GT(ev.rate, 0.0);
      }
      // Random plans only target recoverable surfaces (DESIGN.md §11).
      if (ev.kind == fault::FaultKind::Blackhole) {
        EXPECT_EQ(ev.target, "spine*");
      }
      if (ev.kind == fault::FaultKind::HostStall) {
        EXPECT_EQ(ev.target, "host*");
      }
      if (ev.kind == fault::FaultKind::GrayLoss) {
        EXPECT_LE(ev.rate, opts.max_gray_rate);
        EXPECT_GT(ev.rate, 0.0);
      }
      if (ev.kind == fault::FaultKind::Degrade) {
        EXPECT_GE(ev.rate, opts.min_degrade);
        EXPECT_LE(ev.rate, opts.max_degrade);
      }
      if (ev.kind == fault::FaultKind::Srlg) {
        EXPECT_EQ(ev.members.size(), 2u);
        for (const std::string& m : ev.members) {
          EXPECT_TRUE(m == "leaf*" || m == "spine*") << m;
        }
      }
    }
  }
}

TEST(RandomFaultPlanTest, GrayDegradeSrlgGatedByOptions) {
  fault::RandomFaultOptions opts;
  opts.allow_gray = false;
  opts.allow_degrade = false;
  opts.allow_srlg = false;
  opts.min_events = 4;
  opts.max_events = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const fault::FaultEvent& ev :
         fault::random_fault_plan(opts, seed).events) {
      EXPECT_NE(ev.kind, fault::FaultKind::GrayLoss) << fault::describe(ev);
      EXPECT_NE(ev.kind, fault::FaultKind::Degrade) << fault::describe(ev);
      EXPECT_NE(ev.kind, fault::FaultKind::Srlg) << fault::describe(ev);
    }
  }
}

TEST(RandomFaultPlanTest, GrayDegradeSrlgDrawnWhenAllowed) {
  // Default options allow all three new kinds; over enough seeds each one
  // must actually appear (the chaos suite depends on that coverage).
  const fault::RandomFaultOptions opts;
  bool saw_gray = false, saw_degrade = false, saw_srlg = false;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const fault::FaultEvent& ev :
         fault::random_fault_plan(opts, seed).events) {
      saw_gray |= ev.kind == fault::FaultKind::GrayLoss;
      saw_degrade |= ev.kind == fault::FaultKind::Degrade;
      saw_srlg |= ev.kind == fault::FaultKind::Srlg;
    }
  }
  EXPECT_TRUE(saw_gray);
  EXPECT_TRUE(saw_degrade);
  EXPECT_TRUE(saw_srlg);
}

TEST(RandomFaultPlanTest, OptionFlagsExcludeKinds) {
  fault::RandomFaultOptions opts;
  opts.allow_stall = false;
  opts.allow_blackhole = false;
  opts.allow_targeted = false;
  opts.allow_gray = false;
  opts.allow_degrade = false;
  opts.allow_srlg = false;
  opts.min_events = 4;
  opts.max_events = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const fault::FaultEvent& ev :
         fault::random_fault_plan(opts, seed).events) {
      EXPECT_TRUE(ev.kind == fault::FaultKind::LinkFlap ||
                  ev.kind == fault::FaultKind::LossWindow)
          << fault::describe(ev);
    }
  }
}

TEST(RandomFaultPlanTest, ExpandHonorsExplicitCount) {
  fault::FaultPlan plan = fault::parse_fault_spec("rand:7@20us:100us");
  Rng rng(42);
  const fault::FaultPlan expanded =
      fault::expand(plan, fault::RandomFaultOptions{}, rng);
  EXPECT_EQ(expanded.events.size(), 7u);
}

TEST(RandomFaultPlanTest, ExpandPassesConcreteEventsThrough) {
  fault::FaultPlan plan =
      fault::parse_fault_spec("flap:leaf0@30us:40us;rand:2@20us:100us");
  Rng rng(42);
  const fault::FaultPlan expanded =
      fault::expand(plan, fault::RandomFaultOptions{}, rng);
  ASSERT_EQ(expanded.events.size(), 3u);
  EXPECT_EQ(expanded.events[0].kind, fault::FaultKind::LinkFlap);
  EXPECT_EQ(expanded.events[0].target, "leaf0");
}

// ---- the injector against a live topology -----------------------------------

net::LeafSpineParams small_topo() {
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  return p;
}

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1) : net(net_config(seed)) {
    net::Topology::leaf_spine(net, small_topo(),
                              core::dcpim_host_factory(cfg));
  }
  static net::NetConfig net_config(std::uint64_t seed) {
    net::NetConfig c;
    c.seed = seed;
    return c;
  }
  net::Device* device(const std::string& name) {
    for (const auto& dev : net.devices()) {
      if (dev->name() == name) return dev.get();
    }
    return nullptr;
  }
  net::Network net;
  core::DcpimConfig cfg;
};

harness::FaultInjector::Options injector_opts(std::uint64_t seed = 1) {
  harness::FaultInjector::Options opts;
  opts.seed = seed;
  return opts;
}

TEST(FaultInjectorTest, IsWildcardTarget) {
  EXPECT_TRUE(harness::is_wildcard_target("*"));
  EXPECT_TRUE(harness::is_wildcard_target("leaf*"));
  EXPECT_FALSE(harness::is_wildcard_target("leaf0"));
  EXPECT_FALSE(harness::is_wildcard_target(""));
}

TEST(FaultInjectorTest, UnknownTargetThrows) {
  Fixture f;
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("flap:nosuchswitch@10us:10us"),
      injector_opts());
  EXPECT_THROW(inj.install(), std::invalid_argument);
}

TEST(FaultInjectorTest, UnknownPacketKindThrows) {
  Fixture f;
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("drop:carrierpigeon@10us:10us"),
      injector_opts());
  EXPECT_THROW(inj.install(), std::invalid_argument);
}

TEST(FaultInjectorTest, OutOfRangePortThrows) {
  Fixture f;
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("flap:leaf0.99@10us:10us"),
      injector_opts());
  EXPECT_THROW(inj.install(), std::invalid_argument);
}

TEST(FaultInjectorTest, BlackholeDownsEveryPortThenRestores) {
  Fixture f;
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("blackhole:spine0@10us:20us"),
      injector_opts());
  inj.install();
  net::Device* spine = f.device("spine0");
  ASSERT_NE(spine, nullptr);
  ASSERT_FALSE(spine->ports.empty());

  f.net.sim().run(TimePoint(us(15)));  // mid-window
  for (const auto& port : spine->ports) {
    EXPECT_FALSE(port->link_up());
    EXPECT_FALSE(port->reverse()->link_up());  // dead both directions
  }
  f.net.sim().run(TimePoint(us(40)));  // past the window
  for (const auto& port : spine->ports) {
    EXPECT_TRUE(port->link_up());
    EXPECT_TRUE(port->reverse()->link_up());
  }
}

TEST(FaultInjectorTest, StallPausesNicWithoutDrops) {
  Fixture f;
  harness::FaultInjector inj(f.net,
                             fault::parse_fault_spec("stall:host0@10us:20us"),
                             injector_opts());
  inj.install();
  net::Port* nic = f.net.host(0)->nic();
  f.net.sim().run(TimePoint(us(15)));
  EXPECT_TRUE(nic->stalled());
  EXPECT_TRUE(nic->link_up());  // a stall is a pause, not an outage
  f.net.sim().run(TimePoint(us(40)));
  EXPECT_FALSE(nic->stalled());
  EXPECT_EQ(f.net.total_drops(), 0u);
  EXPECT_EQ(f.net.total_injected_drops(), 0u);
}

TEST(FaultInjectorTest, LossWindowSavesAndRestoresPortRate) {
  Fixture f;
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("loss:leaf0.0:0.5@10us:20us"),
      injector_opts());
  inj.install();
  net::Device* leaf = f.device("leaf0");
  ASSERT_NE(leaf, nullptr);
  net::Port* port = leaf->ports.at(0).get();
  const double before = port->config().loss_rate;
  f.net.sim().run(TimePoint(us(15)));
  EXPECT_DOUBLE_EQ(port->config().loss_rate, 0.5);
  f.net.sim().run(TimePoint(us(40)));
  EXPECT_DOUBLE_EQ(port->config().loss_rate, before);
}

TEST(FaultInjectorTest, WildcardResolutionIsSeedDeterministic) {
  // Same plan + same injector seed on two identical networks must fault the
  // exact same ports; a different injector seed is allowed to differ.
  const std::string spec = "flap:leaf*@10us:1ms;blackhole:spine*@10us:1ms";
  auto down_ports = [&](std::uint64_t injector_seed) {
    Fixture f;
    harness::FaultInjector inj(f.net, fault::parse_fault_spec(spec),
                               injector_opts(injector_seed));
    inj.install();
    f.net.sim().run(TimePoint(us(20)));  // mid-window
    std::vector<int> down;
    int index = 0;
    for (const auto& dev : f.net.devices()) {
      for (const auto& port : dev->ports) {
        if (!port->link_up()) down.push_back(index);
        ++index;
      }
    }
    return down;
  };
  const auto first = down_ports(7);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, down_ports(7));
}

TEST(FaultInjectorTest, InstalledPlanReportsWindows) {
  Fixture f;
  harness::FaultInjector inj(
      f.net,
      fault::parse_fault_spec("flap:leaf0@30us:40us;stall:host1@10us:5us"),
      injector_opts());
  inj.install();
  EXPECT_EQ(inj.installed_events(), 2u);
  ASSERT_EQ(inj.windows().size(), 2u);
  EXPECT_EQ(inj.windows()[0].start, TimePoint(us(10)));
  EXPECT_EQ(inj.windows()[1].end, TimePoint(us(70)));
}

TEST(FaultInjectorTest, RecoveryStatsAfterFaultedRun) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    f.net.create_flow(i, 4 + i, f.net.bdp() * 4, TimePoint(us(i)));
  }
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("blackhole:spine0@5us:60us"),
      injector_opts());
  inj.install();
  f.net.sim().run(TimePoint(ms(60)));
  EXPECT_EQ(f.net.completed_flows, f.net.num_flows());

  const fault::RecoveryStats stats = inj.recovery(/*capacity_bps=*/100e9 * 8);
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.fault_events, 1u);
  EXPECT_EQ(stats.windows, 1u);
  EXPECT_EQ(stats.flows_stalled, 0u);
  EXPECT_GT(stats.injected_drops, 0u);  // the blackhole really dropped
  EXPECT_EQ(stats.fault_active, us(60));
  EXPECT_GE(stats.max_recovery, stats.mean_recovery);
}

TEST(FaultInjectorTest, GrayWindowSavesAndRestoresGrayRate) {
  Fixture f;
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("gray:leaf0.0:0.02@10us:20us"),
      injector_opts());
  inj.install();
  net::Port* port = f.device("leaf0")->ports.at(0).get();
  const double before = port->config().gray_loss_rate;
  f.net.sim().run(TimePoint(us(15)));
  EXPECT_DOUBLE_EQ(port->config().gray_loss_rate, 0.02);
  EXPECT_TRUE(port->link_up());  // gray loss is silent: no link-down signal
  f.net.sim().run(TimePoint(us(40)));
  EXPECT_DOUBLE_EQ(port->config().gray_loss_rate, before);
}

TEST(FaultInjectorTest, DegradeScalesAndRestoresLinkRate) {
  Fixture f;
  harness::FaultInjector inj(
      f.net, fault::parse_fault_spec("degrade:leaf0.0:0.25@10us:20us"),
      injector_opts());
  inj.install();
  net::Port* port = f.device("leaf0")->ports.at(0).get();
  const BitsPerSec before = port->config().rate;
  const BitsPerSec before_rev = port->reverse()->config().rate;
  f.net.sim().run(TimePoint(us(15)));
  EXPECT_EQ(port->config().rate, before * 0.25);
  EXPECT_EQ(port->reverse()->config().rate, before_rev * 0.25);
  EXPECT_TRUE(port->link_up());  // a brownout, not an outage
  f.net.sim().run(TimePoint(us(40)));
  EXPECT_EQ(port->config().rate, before);
  EXPECT_EQ(port->reverse()->config().rate, before_rev);
}

TEST(FaultInjectorTest, SrlgMembersFailAndRecoverTogether) {
  Fixture f;
  harness::FaultInjector inj(
      f.net,
      fault::parse_fault_spec("srlg:power=leaf0.0+spine1.0@10us:20us"),
      injector_opts());
  inj.install();
  net::Port* a = f.device("leaf0")->ports.at(0).get();
  net::Port* b = f.device("spine1")->ports.at(0).get();
  f.net.sim().run(TimePoint(us(15)));  // mid-window: the whole group is down
  EXPECT_FALSE(a->link_up());
  EXPECT_FALSE(a->reverse()->link_up());
  EXPECT_FALSE(b->link_up());
  EXPECT_FALSE(b->reverse()->link_up());
  f.net.sim().run(TimePoint(us(40)));  // and recovers as one
  EXPECT_TRUE(a->link_up());
  EXPECT_TRUE(b->link_up());
}

TEST(FaultInjectorTest, GraySrlgRecoveryStatsAttribute) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    // Large flows: data must still be on the wire once the windows open.
    f.net.create_flow(i, 4 + i, f.net.bdp() * 32, TimePoint(us(i)));
  }
  harness::FaultInjector inj(
      f.net,
      fault::parse_fault_spec(
          "gray:leaf0:0.5@2us:100us;srlg:power=spine0+spine1@5us:40us;"
          "degrade:leaf1:0.5@5us:65us"),
      injector_opts());
  inj.install();
  f.net.sim().run(TimePoint(ms(60)));
  EXPECT_EQ(f.net.completed_flows, f.net.num_flows());

  const fault::RecoveryStats stats = inj.recovery(/*capacity_bps=*/100e9 * 8);
  EXPECT_TRUE(stats.enabled);
  EXPECT_GT(stats.gray_drops, 0u);  // 50% gray loss under load must bite
  EXPECT_GT(stats.time_to_first_retransmit, Time{});
  EXPECT_EQ(stats.degrade_active, us(65));
  ASSERT_EQ(stats.srlg.size(), 1u);
  EXPECT_EQ(stats.srlg[0].name, "power");
  // Both spines, both directions of the one picked port each.
  EXPECT_GT(stats.srlg[0].member_ports, 0u);
  EXPECT_EQ(stats.flows_stalled, 0u);  // everything recovered
}

// ---- satellite: per-port fault RNG streams ----------------------------------

TEST(FaultRngStreamTest, PortStreamsAreReproduciblePerSeed) {
  // Two networks with the same seed: every port's fault stream must replay
  // the identical draw sequence (loss decisions can't depend on run order).
  Fixture a(/*seed=*/5);
  Fixture b(/*seed=*/5);
  net::Port* pa = a.device("leaf0")->ports.at(1).get();
  net::Port* pb = b.device("leaf0")->ports.at(1).get();
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(pa->fault_rng().uniform(), pb->fault_rng().uniform());
  }
}

TEST(FaultRngStreamTest, StreamsDifferAcrossPortsAndSeeds) {
  Fixture a(/*seed=*/5);
  Fixture b(/*seed=*/6);
  net::Device* leaf = a.device("leaf0");
  // Distinct ports of one device see distinct streams...
  EXPECT_NE(leaf->ports.at(0)->fault_rng().uniform(),
            leaf->ports.at(1)->fault_rng().uniform());
  // ...and the same port under a different network seed does too.
  EXPECT_NE(a.device("leaf1")->ports.at(0)->fault_rng().uniform(),
            b.device("leaf1")->ports.at(0)->fault_rng().uniform());
}

TEST(FaultRngStreamTest, LossDrawsDoNotPerturbOtherPorts) {
  // Drain draws on one port's stream; a sibling port's next draws must be
  // unaffected — the isolation that keeps cfg.loss_rate out of the shared
  // workload RNG.
  Fixture a(/*seed=*/9);
  Fixture b(/*seed=*/9);
  net::Device* leaf_a = a.device("leaf0");
  net::Device* leaf_b = b.device("leaf0");
  for (int i = 0; i < 100; ++i) {
    leaf_a->ports.at(0)->fault_rng().uniform();  // only network A drains
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(leaf_a->ports.at(1)->fault_rng().uniform(),
                     leaf_b->ports.at(1)->fault_rng().uniform());
  }
}

}  // namespace
}  // namespace dcpim
