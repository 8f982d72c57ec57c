#include "harness/fault_injector.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/dcpim_packets.h"
#include "net/host.h"
#include "util/check.h"
#include "util/logging.h"

namespace dcpim::harness {

namespace fault = sim::fault;

bool is_wildcard_target(const std::string& pattern) {
  return !pattern.empty() && pattern.back() == '*';
}

namespace {

/// Maps a `drop:` kind name to a TargetRule matcher: the generic classes
/// work under every protocol; the named kinds are dcPIM's control packets
/// (matched as control-plane packets with that kind value, so a baseline
/// protocol reusing the integer for a data kind is never caught by it).
int packet_kind_code(const std::string& name) {
  if (name == "any") return -2;       // FaultInjector::kAnyKind
  if (name == "control") return -3;   // FaultInjector::kControlOnly
  if (name == "data") return -4;      // FaultInjector::kDataOnly
  if (name == "notification") return core::kNotification;
  if (name == "notifyack") return core::kNotifyAck;
  if (name == "finish") return core::kFinish;
  if (name == "finishack") return core::kFinishAck;
  if (name == "request" || name == "rts") return core::kRequest;
  if (name == "grant") return core::kGrant;
  if (name == "accept") return core::kAccept;
  if (name == "token") return core::kToken;
  throw std::invalid_argument("unknown fault packet kind '" + name + "'");
}

}  // namespace

FaultInjector::FaultInjector(net::Network& net, fault::FaultPlan plan,
                             Options opts)
    : net_(net), plan_(std::move(plan)), opts_(opts), rng_(opts.seed) {}

FaultInjector::~FaultInjector() {
  if (installed_) net_.clear_fault_filter();
}

std::vector<net::Device*> FaultInjector::match_devices(
    const std::string& pattern) const {
  std::vector<net::Device*> out;
  const bool wildcard = is_wildcard_target(pattern);
  const std::string prefix =
      wildcard ? pattern.substr(0, pattern.size() - 1) : pattern;
  for (const auto& dev : net_.devices()) {
    if (dev->ports.empty()) continue;  // unwired devices can't fault
    const std::string& name = dev->name();
    const bool hit = wildcard ? name.compare(0, prefix.size(), prefix) == 0
                              : name == pattern;
    if (hit) out.push_back(dev.get());
  }
  if (out.empty()) {
    throw std::invalid_argument("fault target '" + pattern +
                                "' matches no wired device");
  }
  return out;
}

net::Device* FaultInjector::pick_device(const std::string& pattern) {
  std::vector<net::Device*> matches = match_devices(pattern);
  if (!is_wildcard_target(pattern)) return matches.front();
  return matches[rng_.uniform_int(matches.size())];
}

std::vector<net::Port*> FaultInjector::pick_ports(
    net::Device& dev, const fault::FaultEvent& ev, bool wildcard_target) {
  if (ev.port >= 0) {
    if (ev.port >= static_cast<int>(dev.ports.size())) {
      throw std::invalid_argument(
          "fault target '" + ev.target + "." + std::to_string(ev.port) +
          "': device has only " + std::to_string(dev.ports.size()) +
          " port(s)");
    }
    return {dev.ports[static_cast<std::size_t>(ev.port)].get()};
  }
  if (wildcard_target) {
    // Wildcard device, no explicit port: fault one RNG-chosen port.
    return {dev.ports[rng_.uniform_int(dev.ports.size())].get()};
  }
  std::vector<net::Port*> out;
  out.reserve(dev.ports.size());
  for (const auto& port : dev.ports) out.push_back(port.get());
  return out;
}

void FaultInjector::install_flap(const fault::FaultEvent& ev) {
  const bool wildcard = is_wildcard_target(ev.target);
  net::Device* dev = pick_device(ev.target);
  const bool whole_device = ev.kind == fault::FaultKind::Blackhole;
  std::vector<net::Port*> ports;
  if (whole_device) {
    for (const auto& port : dev->ports) ports.push_back(port.get());
  } else {
    ports = pick_ports(*dev, ev, wildcard);
  }
  for (net::Port* port : ports) {
    net_.sim().schedule_at(ev.start, [port] { port->set_link_up(false); });
    net_.sim().schedule_at(ev.end(), [port] { port->set_link_up(true); });
    // The reverse direction fails with it: a dead link is dead both ways.
    if (net::Port* rev = port->reverse()) {
      net_.sim().schedule_at(ev.start, [rev] { rev->set_link_up(false); });
      net_.sim().schedule_at(ev.end(), [rev] { rev->set_link_up(true); });
    }
  }
}

void FaultInjector::install_loss(const fault::FaultEvent& ev) {
  const bool wildcard = is_wildcard_target(ev.target);
  net::Device* dev = pick_device(ev.target);
  for (net::Port* port : pick_ports(*dev, ev, wildcard)) {
    const double rate = ev.rate;
    // The pre-window rate is captured when the window opens (not at
    // install time): an experiment-wide loss_rate or an earlier window may
    // own the knob until then, and restoring a stale value would undo it.
    auto saved = std::make_shared<double>(0.0);
    net_.sim().schedule_at(ev.start, [port, rate, saved] {
      *saved = port->config().loss_rate;
      port->set_loss_rate(rate);
    });
    net_.sim().schedule_at(ev.end(), [port, saved] {
      port->set_loss_rate(*saved);
    });
  }
}

void FaultInjector::install_stall(const fault::FaultEvent& ev) {
  net::Device* dev = pick_device(ev.target);
  if (dev->kind() != net::Device::Kind::Host) {
    throw std::invalid_argument("stall target '" + ev.target +
                                "' is not a host");
  }
  auto* host = static_cast<net::Host*>(dev);
  net::Port* nic = host->nic();
  net::Port* rev = nic->reverse();
  net_.sim().schedule_at(ev.start, [nic, rev] {
    nic->set_stalled(true);
    if (rev != nullptr) rev->set_stalled(true);
  });
  net_.sim().schedule_at(ev.end(), [nic, rev] {
    nic->set_stalled(false);
    if (rev != nullptr) rev->set_stalled(false);
  });
}

void FaultInjector::install_targeted(const fault::FaultEvent& ev) {
  TargetRule rule;
  rule.start = ev.start;
  rule.end = ev.end();
  rule.kind = packet_kind_code(ev.packet_kind);
  rule.rate = ev.rate;
  rules_.push_back(rule);
}

void FaultInjector::install_gray(const fault::FaultEvent& ev) {
  const bool wildcard = is_wildcard_target(ev.target);
  net::Device* dev = pick_device(ev.target);
  for (net::Port* port : pick_ports(*dev, ev, wildcard)) {
    const double rate = ev.rate;
    // Same capture-at-open discipline as install_loss, on the gray knob:
    // the link raises no down signal, packets just silently vanish at this
    // rate (attributed as DropReason::kGrayLoss).
    auto saved = std::make_shared<double>(0.0);
    net_.sim().schedule_at(ev.start, [port, rate, saved] {
      *saved = port->config().gray_loss_rate;
      port->set_gray_loss_rate(rate);
    });
    net_.sim().schedule_at(ev.end(), [port, saved] {
      port->set_gray_loss_rate(*saved);
    });
  }
}

void FaultInjector::install_degrade(const fault::FaultEvent& ev) {
  const bool wildcard = is_wildcard_target(ev.target);
  net::Device* dev = pick_device(ev.target);
  for (net::Port* port : pick_ports(*dev, ev, wildcard)) {
    const double fraction = ev.rate;
    // A browned-out link runs slow in both directions; serialization times
    // pick up the new rate per packet, so no Port machinery changes.
    for (net::Port* side : {port, port->reverse()}) {
      if (side == nullptr) continue;
      auto saved = std::make_shared<BitsPerSec>();
      net_.sim().schedule_at(ev.start, [side, fraction, saved] {
        *saved = side->config().rate;
        side->set_rate(*saved * fraction);
      });
      net_.sim().schedule_at(ev.end(), [side, saved] {
        side->set_rate(*saved);
      });
    }
  }
  degrade_windows_.push_back(fault::FaultWindow{ev.start, ev.end()});
}

void FaultInjector::install_srlg(const fault::FaultEvent& ev) {
  SrlgGroup group;
  group.name = ev.target;
  group.start = ev.start;
  group.end = ev.end();
  for (const std::string& member : ev.members) {
    // Member grammar mirrors flap targets: name[.port], wildcards allowed.
    fault::FaultEvent m;
    m.target = member;
    const auto dot = member.rfind('.');
    if (dot != std::string::npos && dot + 1 < member.size() &&
        member.find_first_not_of("0123456789", dot + 1) ==
            std::string::npos) {
      m.port = std::stoi(member.substr(dot + 1));
      m.target = member.substr(0, dot);
    }
    const bool wildcard = is_wildcard_target(m.target);
    net::Device* dev = pick_device(m.target);
    for (net::Port* port : pick_ports(*dev, m, wildcard)) {
      net_.sim().schedule_at(ev.start, [port] { port->set_link_up(false); });
      net_.sim().schedule_at(ev.end(), [port] { port->set_link_up(true); });
      group.ports.push_back(port);
      if (net::Port* rev = port->reverse()) {
        net_.sim().schedule_at(ev.start, [rev] { rev->set_link_up(false); });
        net_.sim().schedule_at(ev.end(), [rev] { rev->set_link_up(true); });
        group.ports.push_back(rev);
      }
    }
  }
  srlg_groups_.push_back(std::move(group));
}

bool FaultInjector::targeted_drop(const net::Packet& p,
                                  net::Port& port) const {
  const TimePoint now = net_.sim().now();
  for (const TargetRule& r : rules_) {
    if (now < r.start || now >= r.end) continue;
    bool match = false;
    switch (r.kind) {
      case kAnyKind: match = true; break;
      case kControlOnly: match = p.control; break;
      case kDataOnly: match = !p.control; break;
      default: match = p.control && p.kind == r.kind; break;
    }
    if (!match) continue;
    // rate == 1 must not consume an RNG draw: an always-drop rule stays
    // out of the port's fault stream, so adding it perturbs nothing else.
    if (r.rate >= 1.0 || port.fault_rng().bernoulli(r.rate)) return true;
  }
  return false;
}

void FaultInjector::install_event(const fault::FaultEvent& ev) {
  switch (ev.kind) {
    case fault::FaultKind::LinkFlap:
    case fault::FaultKind::Blackhole:
      install_flap(ev);
      break;
    case fault::FaultKind::LossWindow:
      install_loss(ev);
      break;
    case fault::FaultKind::HostStall:
      install_stall(ev);
      break;
    case fault::FaultKind::TargetedDrop:
      install_targeted(ev);
      break;
    case fault::FaultKind::GrayLoss:
      install_gray(ev);
      break;
    case fault::FaultKind::Degrade:
      install_degrade(ev);
      break;
    case fault::FaultKind::Srlg:
      install_srlg(ev);
      break;
    case fault::FaultKind::RandomBurst:
      DCPIM_CHECK(false, "bursts are expanded before install");
      break;
  }
}

void FaultInjector::install_gray_observers() {
  bool any_gray = false;
  for (const auto& ev : plan_.events) {
    if (ev.kind == fault::FaultKind::GrayLoss) any_gray = true;
  }
  if (any_gray || !srlg_groups_.empty()) {
    net_.add_drop_observer([this](const net::Packet& p, const net::Port& port,
                                  net::DropReason reason) {
      if (reason == net::DropReason::kGrayLoss) {
        ++gray_drops_;
        if (!first_retransmit_seen_ && !p.control) {
          // Remember every silently-lost data packet (earliest drop per
          // (flow, seq)); the inject observer below waits for any of them
          // to reappear on the wire.
          const std::uint64_t key = (p.flow_id << 32) ^ p.seq;
          auto it = gray_pending_.find(key);
          if (it == gray_pending_.end()) {
            gray_pending_[key] = net_.sim().now();
          }
        }
      } else if (reason == net::DropReason::kLinkDown &&
                 !srlg_groups_.empty()) {
        const TimePoint now = net_.sim().now();
        for (SrlgGroup& g : srlg_groups_) {
          if (now < g.start || now >= g.end) continue;
          for (const net::Port* member : g.ports) {
            if (member == &port) {
              ++g.drops;
              break;
            }
          }
        }
      }
    });
  }
  if (any_gray) {
    net_.add_inject_observer([this](const net::Packet& p) {
      if (first_retransmit_seen_ || p.control || gray_pending_.empty()) {
        return;
      }
      const std::uint64_t key = (p.flow_id << 32) ^ p.seq;
      const auto it = gray_pending_.find(key);
      if (it != gray_pending_.end()) {
        first_retransmit_seen_ = true;
        time_to_first_retransmit_ = net_.sim().now() - it->second;
        gray_pending_.clear();
      }
    });
  }
  if (!degrade_windows_.empty()) {
    std::sort(degrade_windows_.begin(), degrade_windows_.end(),
              [](const fault::FaultWindow& a, const fault::FaultWindow& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end < b.end;
              });
    net_.add_payload_observer([this](Bytes fresh, TimePoint at) {
      if (in_degrade_window(at)) bytes_during_degrade_ += fresh;
    });
  }
}

void FaultInjector::install() {
  DCPIM_CHECK(!installed_, "FaultInjector::install called twice");
  installed_ = true;
  plan_ = fault::expand(plan_, opts_.random, rng_);
  for (const auto& ev : plan_.events) {
    install_event(ev);
    LOG_DEBUG("fault: %s", fault::describe(ev).c_str());
  }
  install_gray_observers();
  if (!rules_.empty()) {
    net_.set_fault_filter([this](const net::Packet& p, net::Port& port) {
      return targeted_drop(p, port);
    });
  }
  windows_ = fault::fault_windows(plan_);
  if (!windows_.empty()) {
    last_window_end_ = windows_.front().end;
    for (const auto& w : windows_) {
      last_window_end_ = std::max(last_window_end_, w.end);
    }
    net_.add_payload_observer([this](Bytes fresh, TimePoint at) {
      if (in_fault_window(at)) {
        bytes_during_ += fresh;
      } else if (at >= last_window_end_) {
        bytes_after_ += fresh;
      }
    });
  }
}

bool FaultInjector::in_fault_window(TimePoint at) const {
  for (const auto& w : windows_) {
    if (at >= w.start && at < w.end) return true;
    if (w.start > at) break;  // sorted by start
  }
  return false;
}

bool FaultInjector::in_degrade_window(TimePoint at) const {
  for (const auto& w : degrade_windows_) {
    if (at >= w.start && at < w.end) return true;
    if (w.start > at) break;  // sorted by start
  }
  return false;
}

fault::RecoveryStats FaultInjector::recovery(double capacity_bps) const {
  fault::RecoveryStats stats;
  if (plan_.empty()) return stats;
  stats.enabled = true;
  stats.fault_events = plan_.events.size();
  stats.windows = windows_.size();
  stats.injected_drops = net_.total_injected_drops();
  for (int h = 0; h < net_.num_hosts(); ++h) {
    stats.recovery_actions += net_.host(h)->loss_recovery_count();
  }

  // Union of the (sorted) fault windows on the clock.
  TimePoint cover_until = windows_.empty() ? TimePoint{} : windows_[0].start;
  for (const auto& w : windows_) {
    const TimePoint from = std::max(w.start, cover_until);
    if (w.end > from) {
      stats.fault_active += w.end - from;
      cover_until = w.end;
    }
  }

  // Time-to-recovery per window: how long after the window closed until
  // every flow it caught un-finished had completed. Flows that never
  // complete count as stalled (once, not per window) and are excluded from
  // the recovery times — they would otherwise read as "recovered at the
  // horizon".
  Time recovery_sum{};
  std::uint64_t recovered_windows = 0;
  for (const auto& w : windows_) {
    Time worst{};
    bool caught = false;
    for (const auto& f : net_.flows()) {
      if (f->start_time >= w.end) continue;  // arrived after the window
      if (f->finished() && f->finish_time <= w.end) continue;  // unscathed
      caught = true;
      if (f->finished()) worst = std::max(worst, f->finish_time - w.end);
    }
    if (!caught) continue;
    recovery_sum += worst;
    ++recovered_windows;
    stats.max_recovery = std::max(stats.max_recovery, worst);
  }
  if (recovered_windows > 0) {
    stats.mean_recovery =
        recovery_sum / static_cast<std::int64_t>(recovered_windows);
  }
  for (const auto& f : net_.flows()) {
    if (!f->finished() && f->start_time < last_window_end_) {
      ++stats.flows_stalled;
    }
  }

  // Goodput normalization: fraction of what `capacity_bps` could carry
  // over the same span (mirrors the utilization series denominator).
  const double capacity_bytes_per_sec = capacity_bps / 8.0;
  const double active_sec = to_sec(stats.fault_active);
  if (capacity_bytes_per_sec > 0 && active_sec > 0) {
    stats.goodput_during_faults =
        fratio(bytes_during_, Bytes{1}) / (capacity_bytes_per_sec * active_sec);
  }
  const Time tail = net_.sim().now() - last_window_end_;
  const double tail_sec = to_sec(tail);
  if (capacity_bytes_per_sec > 0 && tail_sec > 0) {
    stats.goodput_after_faults =
        fratio(bytes_after_, Bytes{1}) / (capacity_bytes_per_sec * tail_sec);
  }

  // Gray-failure outcomes (all zero / empty unless such faults ran).
  stats.gray_drops = gray_drops_;
  stats.time_to_first_retransmit = time_to_first_retransmit_;
  TimePoint degrade_until =
      degrade_windows_.empty() ? TimePoint{} : degrade_windows_[0].start;
  for (const auto& w : degrade_windows_) {
    const TimePoint from = std::max(w.start, degrade_until);
    if (w.end > from) {
      stats.degrade_active += w.end - from;
      degrade_until = w.end;
    }
  }
  const double degrade_sec = to_sec(stats.degrade_active);
  if (capacity_bytes_per_sec > 0 && degrade_sec > 0) {
    stats.goodput_during_degrade = fratio(bytes_during_degrade_, Bytes{1}) /
                                   (capacity_bytes_per_sec * degrade_sec);
  }
  for (const SrlgGroup& g : srlg_groups_) {
    fault::RecoveryStats::SrlgOutcome out;
    out.name = g.name;
    out.member_ports = g.ports.size();
    out.drops = g.drops;
    for (const auto& f : net_.flows()) {
      if (!f->finished() && f->start_time < g.end) ++out.flows_stalled;
    }
    stats.srlg.push_back(std::move(out));
  }
  return stats;
}

}  // namespace dcpim::harness
