#include "harness/experiment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/dcpim_host.h"
#include "harness/audit_probes.h"
#include "harness/fault_injector.h"
#include "net/topology.h"
#include "proto/dctcp.h"
#include "proto/fastpass.h"
#include "proto/homa.h"
#include "proto/hpcc.h"
#include "proto/ndp.h"
#include "proto/phost.h"
#include "proto/tcp.h"
#include "sim/audit.h"
#include "util/logging.h"
#include "workload/cdf.h"
#include "workload/generator.h"

namespace dcpim::harness {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::Dcpim: return "dcPIM";
    case Protocol::Phost: return "pHost";
    case Protocol::Homa: return "Homa";
    case Protocol::HomaAeolus: return "HomaAeolus";
    case Protocol::Ndp: return "NDP";
    case Protocol::Hpcc: return "HPCC";
    case Protocol::Dctcp: return "DCTCP";
    case Protocol::Tcp: return "TCP";
    case Protocol::Fastpass: return "Fastpass";
  }
  return "?";
}

double ExperimentResult::mean_util(std::size_t from_bin,
                                   std::size_t to_bin) const {
  if (to_bin > util_series.size()) to_bin = util_series.size();
  if (to_bin <= from_bin) return 0.0;
  double sum = 0;
  for (std::size_t i = from_bin; i < to_bin; ++i) sum += util_series[i];
  return sum / static_cast<double>(to_bin - from_bin);
}

namespace {

/// Size-bucket edges used for the per-flow-size figures, scaled to the BDP.
std::vector<Bytes> default_bucket_edges(Bytes bdp) {
  return {Bytes{}, bdp / 4, bdp, bdp * 4, bdp * 16, bdp * 64};
}

/// Everything whose lifetime must span the simulation.
struct Runtime {
  explicit Runtime(const ExperimentConfig& cfg) : exp(cfg) {}
  const ExperimentConfig& exp;
  std::unique_ptr<net::Network> net;
  /// Fastpass only: the shared arbiter, created after the Network and
  /// before the topology (hosts bind to it at construction).
  std::unique_ptr<proto::FastpassArbiter> fastpass_arbiter;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<FaultInjector> faults;
  /// Owns the synthetic fixed-size CDF when exp.fixed_size is set. Must be
  /// per-experiment (not static): generators sample it for the whole run,
  /// and experiments execute concurrently under harness::run_sweep.
  std::unique_ptr<workload::EmpiricalCdf> fixed_cdf;
};

net::LbPolicy default_lb_policy(Protocol p) {
  // The TCP family (and HPCC, per its paper) use per-flow ECMP to avoid
  // pathological reordering, as does Fastpass (its arbiter assumes in-order
  // timeslots); the receiver-driven designs spray per packet.
  switch (p) {
    case Protocol::Dcpim:
    case Protocol::Phost:
    case Protocol::Homa:
    case Protocol::HomaAeolus:
    case Protocol::Ndp:
      return net::LbPolicy::kSpray;
    case Protocol::Hpcc:
    case Protocol::Dctcp:
    case Protocol::Tcp:
    case Protocol::Fastpass:
      return net::LbPolicy::kEcmpFlow;
  }
  return net::LbPolicy::kSpray;
}

net::Topology::HostFactory make_factory(Runtime& rt) {
  switch (rt.exp.protocol) {
    case Protocol::Dcpim:
      return core::dcpim_host_factory(rt.exp.dcpim);
    case Protocol::Phost:
      return proto::phost_host_factory();
    case Protocol::Homa:
      return proto::homa_host_factory(/*aeolus=*/false);
    case Protocol::HomaAeolus:
      return proto::homa_host_factory(/*aeolus=*/true);
    case Protocol::Ndp:
      return proto::ndp_host_factory();
    case Protocol::Hpcc:
      return proto::hpcc_host_factory();
    case Protocol::Dctcp:
      return proto::dctcp_host_factory();
    case Protocol::Tcp:
      return proto::tcp_host_factory();
    case Protocol::Fastpass:
      rt.fastpass_arbiter = std::make_unique<proto::FastpassArbiter>(*rt.net);
      return proto::fastpass_host_factory(*rt.fastpass_arbiter);
  }
  throw std::logic_error("unknown protocol");
}

net::PortCustomize make_port_customize(const Runtime& rt) {
  void (*hook)(net::PortConfig&) = nullptr;
  switch (rt.exp.protocol) {
    case Protocol::HomaAeolus:
      hook = proto::homa_port_customize;
      break;
    case Protocol::Ndp:
      hook = proto::ndp_port_customize;
      break;
    case Protocol::Hpcc:
      hook = proto::hpcc_port_customize;
      break;
    case Protocol::Dctcp:
      hook = [](net::PortConfig& pc) {
        proto::dctcp_port_customize(pc, Bytes{});
      };
      break;
    default:
      break;
  }
  return [loss = rt.exp.loss_rate, hook](net::PortConfig& pc) {
    pc.loss_rate = loss;
    if (hook != nullptr) hook(pc);
  };
}

void build_topology(Runtime& rt, const net::Topology::HostFactory& factory,
                    const net::PortCustomize& customize) {
  switch (rt.exp.topo) {
    case TopoKind::LeafSpine:
    case TopoKind::Oversubscribed: {
      net::LeafSpineParams p;
      p.racks = rt.exp.racks;
      p.hosts_per_rack = rt.exp.hosts_per_rack;
      p.spines = rt.exp.spines;
      if (rt.exp.topo == TopoKind::Oversubscribed) {
        p.spine_rate = p.spine_rate / 2;  // 2:1 (§4.1)
      }
      p.port_customize = customize;
      rt.topo = std::make_unique<net::Topology>(
          net::Topology::leaf_spine(*rt.net, p, factory));
      break;
    }
    case TopoKind::FatTree: {
      net::FatTreeParams p;
      p.k = rt.exp.fat_tree_k;
      p.port_customize = customize;
      rt.topo = std::make_unique<net::Topology>(
          net::Topology::fat_tree(*rt.net, p, factory));
      break;
    }
    case TopoKind::Testbed: {
      // Figure 7: 32 servers, two racks, 10 Gbps links (~8 us RTT emerges
      // from the software-host latency below).
      net::LeafSpineParams p;
      p.racks = 2;
      p.hosts_per_rack = 16;
      p.spines = 2;
      p.host_rate = 10 * kGbps;
      p.spine_rate = 40 * kGbps;
      p.port_customize = customize;
      rt.topo = std::make_unique<net::Topology>(
          net::Topology::leaf_spine(*rt.net, p, factory));
      break;
    }
  }
}

void drive_pattern(Runtime& rt, std::vector<std::unique_ptr<workload::PoissonGenerator>>& gens) {
  const ExperimentConfig& exp = rt.exp;
  net::Network& net = *rt.net;
  const net::Topology& topo = *rt.topo;

  const workload::EmpiricalCdf* cdf = nullptr;
  if (exp.fixed_size != Bytes{}) {
    const Bytes size =  // negative: BDP + 1 byte, the Fig 4b worst case
        exp.fixed_size > Bytes{} ? exp.fixed_size : net.bdp() + Bytes{1};
    rt.fixed_cdf =
        std::make_unique<workload::EmpiricalCdf>(workload::fixed_size_cdf(size));
    cdf = rt.fixed_cdf.get();
  } else {
    cdf = &workload::workload_by_name(exp.workload);
  }

  switch (exp.pattern) {
    case Pattern::AllToAll: {
      workload::PoissonPatternConfig pc;
      pc.cdf = cdf;
      pc.load = exp.load;
      pc.stop = exp.gen_stop;
      gens.push_back(std::make_unique<workload::PoissonGenerator>(
          net, topo.host_rate(), pc));
      gens.back()->start();
      break;
    }
    case Pattern::Bursty: {
      // 16 senders in rack 0 run a MapReduce-style shuffle to 16 receivers
      // in rack 1 (Fig 4a): a dense block of long flows that keeps the
      // receivers loaded for the whole horizon...
      std::vector<int> senders, receivers;
      for (int h = 0; h < exp.hosts_per_rack; ++h) senders.push_back(h);
      for (int h = 0; h < exp.hosts_per_rack; ++h) {
        receivers.push_back(exp.hosts_per_rack + h);
      }
      workload::schedule_dense_tm(net, senders, receivers,
                                  exp.dense_flow_size, TimePoint{});
      // ... plus a 50:1 incast from other racks every 100 us (first 600 us).
      std::vector<int> incasters;
      for (int h = 2 * exp.hosts_per_rack;
           h < net.num_hosts() && static_cast<int>(incasters.size()) <
                                      exp.incast_fanin;
           ++h) {
        incasters.push_back(h);
      }
      for (int b = 0; b < exp.incast_bursts; ++b) {
        workload::schedule_incast(net, receivers[0], incasters,
                                  exp.incast_size,
                                  TimePoint(exp.incast_interval * b));
      }
      break;
    }
    case Pattern::DenseTM: {
      workload::schedule_dense_tm(net, workload::all_hosts(net),
                                  workload::all_hosts(net),
                                  exp.dense_flow_size, TimePoint{});
      break;
    }
    case Pattern::Incast: {
      std::vector<int> senders;
      for (int h = 1;
           h < net.num_hosts() &&
           static_cast<int>(senders.size()) < exp.incast_fanin;
           ++h) {
        senders.push_back(h);
      }
      workload::schedule_incast(net, 0, senders, exp.incast_size, TimePoint{});
      break;
    }
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  Runtime rt(cfg);

  net::NetConfig ncfg;
  ncfg.seed = cfg.seed;
  ncfg.lb_policy = cfg.lb_policy.value_or(default_lb_policy(cfg.protocol));
  ncfg.flowlet_gap = cfg.flowlet_gap;
  rt.net = std::make_unique<net::Network>(ncfg);

  auto factory = make_factory(rt);
  auto customize = make_port_customize(rt);
  build_topology(rt, factory, customize);

  stats::FlowStats fstats(*rt.net, *rt.topo);
  fstats.set_window(cfg.measure_start, cfg.measure_end);
  stats::GoodputMeter goodput(*rt.net);
  goodput.set_window(cfg.measure_start, cfg.measure_end);
  stats::UtilizationSeries util(*rt.net, cfg.util_bin);

  std::vector<std::unique_ptr<workload::PoissonGenerator>> gens;
  drive_pattern(rt, gens);

  if (!cfg.faults.empty()) {
    FaultInjector::Options fopts;
    fopts.seed = cfg.fault_seed;
    rt.faults = std::make_unique<FaultInjector>(
        *rt.net, sim::fault::parse_fault_spec(cfg.faults), fopts);
    rt.faults->install();
  }

  std::unique_ptr<sim::Auditor> auditor;
  if (cfg.audit) {
    auditor = std::make_unique<sim::Auditor>();
    install_standard_probes(*auditor, *rt.net);
    auditor->attach(rt.net->sim());
  }

  rt.net->sim().run(cfg.horizon);

  ExperimentResult res;
  res.events_executed = rt.net->sim().events_executed();
  res.sim_end = rt.net->sim().now();
  res.pool_acquired = rt.net->data_packets_made();
  res.peak_pending = rt.net->sim().peak_pending();
  res.bdp = rt.net->bdp();
  res.data_rtt = rt.net->max_data_rtt();
  res.control_rtt = rt.net->max_control_rtt();
  res.overall = fstats.summary();
  res.short_flows = fstats.short_flows(res.bdp);
  res.buckets = fstats.by_buckets(default_bucket_edges(res.bdp));
  res.goodput_ratio = goodput.ratio();
  {
    const double window_sec = to_sec(cfg.measure_end - cfg.measure_start);
    // sa-ok(unit-raw): offered-rate algebra mixes rate, load fraction and seconds.
    const double offered_rate_bytes =
        cfg.load * static_cast<double>(rt.topo->host_rate().raw()) / 8.0 *
        rt.net->num_hosts();
    if (window_sec > 0 && offered_rate_bytes > 0) {
      // sa-ok(unit-raw): goodput ratio against the double-valued offered rate
      res.load_carried_ratio = static_cast<double>(goodput.delivered().raw()) /
                               (offered_rate_bytes * window_sec);
    }
  }
  res.flows_total = rt.net->num_flows();
  res.flows_done = rt.net->completed_flows;
  res.drops = rt.net->total_drops();
  res.injected_drops = rt.net->total_injected_drops();
  res.trims = rt.net->total_trims();
  for (const auto& dev : rt.net->devices()) {
    if (dev->kind() == net::Device::Kind::Switch) {
      res.pfc_pauses += static_cast<net::Switch*>(dev.get())->pfc_pauses_sent;
    }
  }
  // Utilization relative to the aggregate receiver capacity involved in the
  // pattern (all hosts for all-to-all / dense; one rack for bursty).
  // sa-ok(unit-raw): utilization denominators are double-valued aggregate bps.
  double capacity_bps =
      static_cast<double>(rt.topo->host_rate().raw()) * rt.net->num_hosts();
  if (cfg.pattern == Pattern::Bursty) {
    capacity_bps =
        static_cast<double>(rt.topo->host_rate().raw()) * cfg.hosts_per_rack;
  } else if (cfg.pattern == Pattern::Incast) {
    capacity_bps = static_cast<double>(rt.topo->host_rate().raw());
  }
  res.util_bin = cfg.util_bin;
  res.util_series.resize(util.num_bins());
  for (std::size_t i = 0; i < util.num_bins(); ++i) {
    res.util_series[i] = util.utilization(i, capacity_bps);
  }
  if (rt.faults) {
    res.recovery = rt.faults->recovery(capacity_bps);
  }
  if (auditor) {
    // Final end-of-run sweep: catches invariants that only settle once the
    // event queue drains (e.g. completion correctness for every flow).
    auditor->sweep(rt.net->sim().now());
    res.audit = auditor->summary();
    if (!res.audit.clean()) {
      LOG_WARN("audit: %llu invariant violation(s); first: [%s] %s",
               static_cast<unsigned long long>(res.audit.violations_total),
               res.audit.violations.front().probe.c_str(),
               res.audit.violations.front().message.c_str());
    }
  }
  return res;
}

}  // namespace dcpim::harness
