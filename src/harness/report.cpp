#include "harness/report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

namespace dcpim::harness {

std::string csv_header() {
  return "experiment,protocol,workload,load,flows_total,flows_done,"
         "mean_slowdown,p50_slowdown,p99_slowdown,short_mean,short_p99,"
         "goodput_ratio,load_carried_ratio,drops,trims,pfc_pauses,"
         "bdp_bytes,data_rtt_us,control_rtt_us,audit_checks,audit_violations,"
         "fault_events,injected_drops,recovery_actions,flows_stalled,"
         "fault_active_us,mean_recovery_us,max_recovery_us,"
         "goodput_during_faults,goodput_after_faults,"
         "gray_drops,time_to_first_retx_us,degrade_active_us,"
         "goodput_during_degrade,srlg_groups,srlg_drops,srlg_flows_stalled,"
         "peak_pending";
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

ReportRow report_row(const std::string& experiment,
                     const ExperimentConfig& config,
                     const ExperimentResult& result) {
  return {experiment, to_string(config.protocol), config.workload, config.load,
          result};
}

std::string to_csv_row(const ReportRow& row) {
  const ExperimentResult& r = row.result;
  std::ostringstream os;
  os << row.experiment << ',' << row.protocol << ',' << row.workload << ','
     << row.load << ',' << r.flows_total << ',' << r.flows_done << ','
     << r.overall.mean << ',' << r.overall.p50 << ',' << r.overall.p99 << ','
     << r.short_flows.mean << ',' << r.short_flows.p99 << ','
     << r.goodput_ratio << ',' << r.load_carried_ratio << ',' << r.drops
     << ',' << r.trims << ',' << r.pfc_pauses << ',' << r.bdp << ','
     << to_us(r.data_rtt) << ',' << to_us(r.control_rtt) << ','
     << r.audit.checks << ',' << r.audit.violations_total << ','
     << r.recovery.fault_events << ',' << r.recovery.injected_drops << ','
     << r.recovery.recovery_actions << ',' << r.recovery.flows_stalled << ','
     << to_us(r.recovery.fault_active) << ','
     << to_us(r.recovery.mean_recovery) << ','
     << to_us(r.recovery.max_recovery) << ','
     << r.recovery.goodput_during_faults << ','
     << r.recovery.goodput_after_faults << ','
     << r.recovery.gray_drops << ','
     << to_us(r.recovery.time_to_first_retransmit) << ','
     << to_us(r.recovery.degrade_active) << ','
     << r.recovery.goodput_during_degrade << ',';
  std::uint64_t srlg_drops = 0;
  std::uint64_t srlg_stalled = 0;
  for (const auto& g : r.recovery.srlg) {
    srlg_drops += g.drops;
    srlg_stalled += g.flows_stalled;
  }
  os << r.recovery.srlg.size() << ',' << srlg_drops << ',' << srlg_stalled
     << ',' << r.peak_pending;
  return os.str();
}

namespace {

/// %a hex-float: round-trips every double bit pattern, unlike %g/%f.
void append_exact(std::ostringstream& os, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << buf;
}

void append_slowdown(std::ostringstream& os, const char* label,
                     const stats::SlowdownSummary& s) {
  os << label << ":count=" << s.count << ",mean=";
  append_exact(os, s.mean);
  os << ",p50=";
  append_exact(os, s.p50);
  os << ",p99=";
  append_exact(os, s.p99);
  os << ",max=";
  append_exact(os, s.max);
  os << "\n";
}

}  // namespace

std::string result_fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  append_slowdown(os, "overall", r.overall);
  append_slowdown(os, "short_flows", r.short_flows);
  for (std::size_t i = 0; i < r.buckets.size(); ++i) {
    os << "bucket[" << i << "]:lo=" << r.buckets[i].lo
       << ",hi=" << r.buckets[i].hi << " ";
    append_slowdown(os, "slowdown", r.buckets[i].slowdown);
  }
  os << "goodput_ratio=";
  append_exact(os, r.goodput_ratio);
  os << "\nload_carried_ratio=";
  append_exact(os, r.load_carried_ratio);
  os << "\nflows_total=" << r.flows_total << " flows_done=" << r.flows_done
     << " drops=" << r.drops << " trims=" << r.trims
     << " pfc_pauses=" << r.pfc_pauses << " bdp=" << r.bdp
     << " data_rtt=" << r.data_rtt << " control_rtt=" << r.control_rtt
     << " util_bin=" << r.util_bin << "\n";
  os << "events_executed=" << r.events_executed << " sim_end=" << r.sim_end
     << "\n";
  os << "util_series[" << r.util_series.size() << "]:";
  for (double u : r.util_series) {
    os << ' ';
    append_exact(os, u);
  }
  os << "\nrecovery:enabled=" << r.recovery.enabled
     << ",events=" << r.recovery.fault_events
     << ",windows=" << r.recovery.windows
     << ",injected_drops=" << r.recovery.injected_drops
     << ",actions=" << r.recovery.recovery_actions
     << ",stalled=" << r.recovery.flows_stalled
     << ",active=" << r.recovery.fault_active
     << ",mean_recovery=" << r.recovery.mean_recovery
     << ",max_recovery=" << r.recovery.max_recovery
     << ",goodput_during=";
  append_exact(os, r.recovery.goodput_during_faults);
  os << ",goodput_after=";
  append_exact(os, r.recovery.goodput_after_faults);
  os << " injected_drops_total=" << r.injected_drops;
  if (r.recovery.enabled) {
    // Gray/SRLG extension, gated on a fault plan having run: clean-network
    // fingerprints must stay byte-identical across this feature's life.
    os << "\ngray:drops=" << r.recovery.gray_drops
       << ",first_retx=" << r.recovery.time_to_first_retransmit
       << ",degrade_active=" << r.recovery.degrade_active
       << ",goodput_during_degrade=";
    append_exact(os, r.recovery.goodput_during_degrade);
    for (const auto& g : r.recovery.srlg) {
      os << "\nsrlg:" << g.name << "=ports:" << g.member_ports
         << ",drops:" << g.drops << ",stalled:" << g.flows_stalled;
    }
  }
  os << "\naudit:enabled=" << r.audit.enabled << ",sweeps=" << r.audit.sweeps
     << ",checks=" << r.audit.checks
     << ",violations_total=" << r.audit.violations_total << "\n";
  for (const auto& probe : r.audit.probes) {
    os << "audit_probe:" << probe.name << "=" << probe.checks << "/"
       << probe.violations << "\n";
  }
  for (const auto& v : r.audit.violations) {
    os << "audit_violation:[" << v.at << "] " << v.probe << ": " << v.message
       << "\n";
  }
  return os.str();
}

bool append_csv(const std::string& dir, const std::vector<ReportRow>& rows) {
  if (dir.empty() || rows.empty()) return false;
  const std::string path = dir + "/" + rows.front().experiment + ".csv";
  struct stat st{};
  const bool fresh = stat(path.c_str(), &st) != 0;
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  if (fresh) out << csv_header() << "\n";
  for (const auto& row : rows) out << to_csv_row(row) << "\n";
  return static_cast<bool>(out);
}

std::string csv_dir_from_env() {
  const char* dir = std::getenv("DCPIM_BENCH_CSV");
  return dir != nullptr ? dir : "";
}

}  // namespace dcpim::harness
