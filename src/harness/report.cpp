#include "harness/report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace dcpim::harness {

namespace {

using Kind = Metric::Kind;
using R = const ExperimentResult&;
constexpr Kind kReal = Kind::kReal;
constexpr Kind kRatio = Kind::kRatio;
constexpr Kind kCount = Kind::kCount;
constexpr Kind kBytes = Kind::kBytes;

double n(std::uint64_t v) { return static_cast<double>(v); }

using Srlg = sim::fault::RecoveryStats::SrlgOutcome;

double srlg_sum(R r, std::uint64_t Srlg::*field) {
  std::uint64_t sum = 0;
  for (const Srlg& g : r.recovery.srlg) sum += g.*field;
  return n(sum);
}

const Metric kMetrics[] = {
    {"flows_total", kCount, [](R r) { return n(r.flows_total); }},
    {"flows_done", kCount, [](R r) { return n(r.flows_done); }},
    {"mean_slowdown", kReal, [](R r) { return r.overall.mean; }},
    {"p50_slowdown", kReal, [](R r) { return r.overall.p50; }},
    {"p99_slowdown", kReal, [](R r) { return r.overall.p99; }},
    {"short_mean", kReal, [](R r) { return r.short_flows.mean; }},
    {"short_p99", kReal, [](R r) { return r.short_flows.p99; }},
    {"goodput_ratio", kRatio, [](R r) { return r.goodput_ratio; }},
    {"load_carried_ratio", kRatio, [](R r) { return r.load_carried_ratio; }},
    {"drops", kCount, [](R r) { return n(r.drops); }},
    {"trims", kCount, [](R r) { return n(r.trims); }},
    {"pfc_pauses", kCount, [](R r) { return n(r.pfc_pauses); }},
    {"bdp_bytes", kBytes,
     [](R r) { return static_cast<double>(r.bdp / Bytes{1}); }},
    {"data_rtt_us", kReal, [](R r) { return to_us(r.data_rtt); }},
    {"control_rtt_us", kReal, [](R r) { return to_us(r.control_rtt); }},
    {"audit_checks", kCount, [](R r) { return n(r.audit.checks); }},
    {"audit_violations", kCount,
     [](R r) { return n(r.audit.violations_total); }},
    {"fault_events", kCount, [](R r) { return n(r.recovery.fault_events); }},
    {"injected_drops", kCount,
     [](R r) { return n(r.recovery.injected_drops); }},
    {"recovery_actions", kCount,
     [](R r) { return n(r.recovery.recovery_actions); }},
    {"flows_stalled", kCount, [](R r) { return n(r.recovery.flows_stalled); }},
    {"fault_active_us", kReal,
     [](R r) { return to_us(r.recovery.fault_active); }},
    {"mean_recovery_us", kReal,
     [](R r) { return to_us(r.recovery.mean_recovery); }},
    {"max_recovery_us", kReal,
     [](R r) { return to_us(r.recovery.max_recovery); }},
    {"goodput_during_faults", kRatio,
     [](R r) { return r.recovery.goodput_during_faults; }},
    {"goodput_after_faults", kRatio,
     [](R r) { return r.recovery.goodput_after_faults; }},
    {"gray_drops", kCount, [](R r) { return n(r.recovery.gray_drops); }},
    {"time_to_first_retx_us", kReal,
     [](R r) { return to_us(r.recovery.time_to_first_retransmit); }},
    {"degrade_active_us", kReal,
     [](R r) { return to_us(r.recovery.degrade_active); }},
    {"goodput_during_degrade", kRatio,
     [](R r) { return r.recovery.goodput_during_degrade; }},
    {"srlg_groups", kCount, [](R r) { return n(r.recovery.srlg.size()); }},
    {"srlg_drops", kCount, [](R r) { return srlg_sum(r, &Srlg::drops); }},
    {"srlg_flows_stalled", kCount,
     [](R r) { return srlg_sum(r, &Srlg::flows_stalled); }},
};

}  // namespace

std::span<const Metric> metrics() { return kMetrics; }

const Metric* find_metric(const std::string& name) {
  for (const Metric& m : kMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

std::string csv_header() {
  std::string header = "experiment,protocol,workload,load";
  for (const Metric& m : kMetrics) header += std::string(",") + m.name;
  return header + ",peak_pending";
}

std::string to_csv_row(const std::string& experiment,
                       const ExperimentConfig& config,
                       const ExperimentResult& result) {
  std::ostringstream os;
  os << experiment << ',' << to_string(config.protocol) << ','
     << config.workload << ',' << config.load;
  for (const Metric& m : kMetrics) {
    const double v = m.get(result);
    os << ',';
    switch (m.kind) {
      case Kind::kReal:
      case Kind::kRatio: os << v; break;
      case Kind::kCount: os << static_cast<std::uint64_t>(v); break;
      case Kind::kBytes: os << Bytes{static_cast<std::int64_t>(v)}; break;
    }
  }
  os << ',' << result.peak_pending;
  return os.str();
}

std::string format_recovery_stats(const sim::fault::RecoveryStats& r) {
  if (!r.enabled) return "faults: disabled";
  std::ostringstream os;
  os << "faults: " << r.fault_events << " event(s), " << r.injected_drops
     << " injected drop(s), active " << to_us(r.fault_active) << " us\n"
     << "  recovery: " << r.recovery_actions << " action(s), mean "
     << to_us(r.mean_recovery) << " us, max " << to_us(r.max_recovery)
     << " us, " << r.flows_stalled << " flow(s) stalled\n"
     << "  goodput: " << r.goodput_during_faults << " during, "
     << r.goodput_after_faults << " after\n";
  if (r.gray_drops > 0 || r.time_to_first_retransmit > Time{}) {
    os << "  gray: " << r.gray_drops << " silent drop(s), first retransmit "
       << to_us(r.time_to_first_retransmit) << " us after loss\n";
  }
  if (r.degrade_active > Time{}) {
    os << "  degrade: active " << to_us(r.degrade_active) << " us, goodput "
       << r.goodput_during_degrade << " during\n";
  }
  for (const auto& g : r.srlg) {
    os << "  srlg " << g.name << ": " << g.member_ports << " port(s), "
       << g.drops << " drop(s), " << g.flows_stalled << " flow(s) stalled\n";
  }
  return os.str();
}

std::string format_audit_summary(const sim::AuditSummary& audit) {
  if (!audit.enabled) return "audit: disabled";
  std::ostringstream os;
  os << "audit: " << (audit.clean() ? "clean" : "VIOLATIONS") << " ("
     << audit.sweeps << " sweeps, " << audit.checks << " checks, "
     << audit.violations_total << " violations)\n";
  for (const auto& probe : audit.probes) {
    os << "  probe " << probe.name << ": " << probe.checks << " checks, "
       << probe.violations << " violations\n";
  }
  if (!audit.violations.empty()) {
    const std::size_t recorded = audit.violations.size();
    os << "  first " << recorded << " of " << audit.violations_total
       << " violation(s):\n";
    for (const auto& v : audit.violations) {
      os << "    [" << to_us(v.at) << " us] " << v.probe << ": " << v.message
         << "\n";
    }
  }
  return os.str();
}

namespace {

/// result_fingerprint()'s writer: each field appended as text after its
/// label, doubles as %a hex floats, which round-trip every bit pattern
/// (unlike %g/%f).
class FingerprintWriter {
 public:
  void lit(const char* text) { os_ << text; }
  template <typename T>
  void num(const char* label, const T& v) {
    os_ << label << v;  // counts, flags, and Time/TimePoint/Bytes + unit
  }
  void real(const char* label, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    os_ << label << buf;
  }
  void text(const std::string& s, const char* /*stop*/) { os_ << s; }
  template <typename T>
  void resize(const std::vector<T>& /*v*/, std::size_t /*n*/) {}
  template <typename T, typename Field>
  void each(const char* prefix, const std::vector<T>& items, Field field) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      lit(prefix);
      field(items[i], i);
    }
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

/// parse_result_fingerprint()'s reader: the same calls consume the text,
/// throwing std::invalid_argument at the first byte that does not fit.
class FingerprintReader {
 public:
  explicit FingerprintReader(const std::string& text) : text_(text) {}

  void lit(const char* text) {
    if (!at(text)) fail();
    pos_ += std::strlen(text);
  }
  template <typename T>
  void num(const char* label, T& v) {
    lit(label);
    char* end = nullptr;
    const long long whole = std::strtoll(text_.c_str() + pos_, &end, 10);
    advance_to(end);
    if constexpr (std::is_arithmetic_v<T>) {
      v = static_cast<T>(whole);
    } else {
      v = T{whole};
      lit(" ");
      lit(T::unit_suffix());
    }
  }
  void real(const char* label, double& v) {
    lit(label);
    char* end = nullptr;
    v = std::strtod(text_.c_str() + pos_, &end);
    advance_to(end);
  }
  /// The text up to (not including) the next `stop` on this line.
  void text(std::string& s, const char* stop) {
    const std::size_t end = text_.find(stop, pos_);
    if (end == std::string::npos || text_.find('\n', pos_) < end) fail();
    s = text_.substr(pos_, end - pos_);
    pos_ = end;
  }
  template <typename T>
  void resize(std::vector<T>& v, std::size_t n) {
    v.resize(n);
  }
  template <typename T, typename Field>
  void each(const char* prefix, std::vector<T>& items, Field field) {
    while (at(prefix)) {
      lit(prefix);
      items.emplace_back();
      field(items.back(), items.size() - 1);
    }
  }
  bool done() const { return pos_ == text_.size(); }

 private:
  bool at(const char* text) const {
    return text_.compare(pos_, std::strlen(text), text) == 0;
  }
  void advance_to(const char* end) {
    const auto next = static_cast<std::size_t>(end - text_.c_str());
    if (next == pos_) fail();
    pos_ = next;
  }
  [[noreturn]] void fail() const {
    throw std::invalid_argument("not a result fingerprint at byte " +
                                std::to_string(pos_));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

template <typename Io, typename Summary>
void slowdown_fields(Io& io, const char* label, Summary& s) {
  io.lit(label);
  io.num(":count=", s.count);
  io.real(",mean=", s.mean);
  io.real(",p50=", s.p50);
  io.real(",p99=", s.p99);
  io.real(",max=", s.max);
  io.lit("\n");
}

/// The fingerprint's layout, once for both directions: `Result` is a const
/// ExperimentResult for the writer and a mutable one for the reader.
template <typename Io, typename Result>
void fingerprint_fields(Io& io, Result& r) {
  slowdown_fields(io, "overall", r.overall);
  slowdown_fields(io, "short_flows", r.short_flows);
  io.each("bucket[", r.buckets, [&io](auto& b, std::size_t i) {
    io.num("", i);  // the index; the reader's round-trip check pins it
    io.num("]:lo=", b.lo);
    io.num(",hi=", b.hi);
    io.lit(" ");
    slowdown_fields(io, "slowdown", b.slowdown);
  });
  io.real("goodput_ratio=", r.goodput_ratio);
  io.real("\nload_carried_ratio=", r.load_carried_ratio);
  io.num("\nflows_total=", r.flows_total);
  io.num(" flows_done=", r.flows_done);
  io.num(" drops=", r.drops);
  io.num(" trims=", r.trims);
  io.num(" pfc_pauses=", r.pfc_pauses);
  io.num(" bdp=", r.bdp);
  io.num(" data_rtt=", r.data_rtt);
  io.num(" control_rtt=", r.control_rtt);
  io.num(" util_bin=", r.util_bin);
  io.num("\nevents_executed=", r.events_executed);
  io.num(" sim_end=", r.sim_end);
  std::uint64_t bins = r.util_series.size();
  io.num("\nutil_series[", bins);
  io.resize(r.util_series, bins);
  io.lit("]:");
  for (auto& u : r.util_series) io.real(" ", u);
  auto& f = r.recovery;
  io.num("\nrecovery:enabled=", f.enabled);
  io.num(",events=", f.fault_events);
  io.num(",windows=", f.windows);
  io.num(",injected_drops=", f.injected_drops);
  io.num(",actions=", f.recovery_actions);
  io.num(",stalled=", f.flows_stalled);
  io.num(",active=", f.fault_active);
  io.num(",mean_recovery=", f.mean_recovery);
  io.num(",max_recovery=", f.max_recovery);
  io.real(",goodput_during=", f.goodput_during_faults);
  io.real(",goodput_after=", f.goodput_after_faults);
  io.num(" injected_drops_total=", r.injected_drops);
  if (f.enabled) {
    // Gray/SRLG extension, gated on a fault plan having run: clean-network
    // fingerprints must stay byte-identical across this feature's life.
    io.num("\ngray:drops=", f.gray_drops);
    io.num(",first_retx=", f.time_to_first_retransmit);
    io.num(",degrade_active=", f.degrade_active);
    io.real(",goodput_during_degrade=", f.goodput_during_degrade);
    io.each("\nsrlg:", f.srlg, [&io](auto& g, std::size_t) {
      io.text(g.name, "=ports:");
      io.num("=ports:", g.member_ports);
      io.num(",drops:", g.drops);
      io.num(",stalled:", g.flows_stalled);
    });
  }
  auto& a = r.audit;
  io.num("\naudit:enabled=", a.enabled);
  io.num(",sweeps=", a.sweeps);
  io.num(",checks=", a.checks);
  io.num(",violations_total=", a.violations_total);
  io.lit("\n");
  io.each("audit_probe:", a.probes, [&io](auto& p, std::size_t) {
    io.text(p.name, "=");
    io.num("=", p.checks);
    io.num("/", p.violations);
    io.lit("\n");
  });
  io.each("audit_violation:[", a.violations, [&io](auto& v, std::size_t) {
    io.num("", v.at);
    io.lit("] ");
    io.text(v.probe, ": ");
    io.lit(": ");
    io.text(v.message, "\n");
    io.lit("\n");
  });
}

}  // namespace

std::string result_fingerprint(const ExperimentResult& r) {
  FingerprintWriter out;
  fingerprint_fields(out, r);
  return out.str();
}

std::optional<ExperimentResult> parse_result_fingerprint(
    const std::string& text) {
  ExperimentResult r;
  try {
    FingerprintReader in(text);
    fingerprint_fields(in, r);
    // The exactness check: a field the reader misread, or text no result
    // prints (a probe name holding '='), would serialize differently.
    if (!in.done() || result_fingerprint(r) != text) return std::nullopt;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return r;
}

}  // namespace dcpim::harness
