#include "sim/audit.h"

#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace dcpim::sim {

void Auditor::Context::fail(std::string message) {
  auditor_.record(probe_, now_, std::move(message));
}

Auditor::Auditor(Options options) : options_(options) {
  DCPIM_CHECK_GT(options_.period, Time{}, "audit period must be positive");
  // Probe 0 is always the clock-monotonicity watchdog: the simulator's
  // always-on DCPIM_CHECK guards each pop, but a corrupted `now_` between
  // sweeps (e.g. a callback writing through a stale pointer) is only
  // observable by an outside party remembering the previous reading.
  add_probe("event-time-monotonic", [this](Context& ctx) {
    if (saw_tick_ && ctx.now() < last_seen_now_) {
      ctx.fail("simulation clock moved backwards: " +
               to_string(last_seen_now_) + " -> " + to_string(ctx.now()));
    }
    last_seen_now_ = ctx.now();
    saw_tick_ = true;
  });
}

std::size_t Auditor::add_probe(std::string name, ProbeFn fn) {
  Probe p;
  p.fn = std::move(fn);
  p.stat.name = std::move(name);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

std::size_t Auditor::add_event_probe(std::string name) {
  return add_probe(std::move(name), ProbeFn());
}

void Auditor::report(std::size_t id, TimePoint at, std::string message) {
  ++probes_[id].stat.checks;
  record(id, at, std::move(message));
}

void Auditor::record(std::size_t probe, TimePoint at, std::string message) {
  ++probes_[probe].stat.violations;
  ++violations_total_;
  LOG_WARN("audit violation [%s] at %.3f us: %s",
           probes_[probe].stat.name.c_str(), to_us(at), message.c_str());
  if (violations_.size() < options_.max_recorded_violations) {
    violations_.push_back(
        AuditViolation{at, probes_[probe].stat.name, std::move(message)});
  }
}

void Auditor::attach(Simulator& sim) {
  // sa-ok(lifetime): the captured reference is the Simulator that owns and
  // runs this callback — it strictly outlives its own event queue.
  sim.schedule_after(options_.period, [this, &sim]() { tick(sim); });
}

void Auditor::tick(Simulator& sim) {
  sweep(sim.now());
  // Reschedule only while the simulation has other work: an auditor must
  // observe a run, not prolong it.
  if (sim.pending() > 0) {
    // sa-ok(lifetime): same as attach() — the Simulator outlives the
    // callbacks it stores.
    sim.schedule_after(options_.period, [this, &sim]() { tick(sim); });
  }
}

void Auditor::sweep(TimePoint now) {
  ++sweeps_;
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (!probes_[i].fn) continue;
    ++probes_[i].stat.checks;
    Context ctx(*this, i, now);
    probes_[i].fn(ctx);
  }
}

AuditSummary Auditor::summary() const {
  AuditSummary s;
  s.enabled = true;
  s.sweeps = sweeps_;
  s.violations_total = violations_total_;
  s.violations = violations_;
  for (const Probe& p : probes_) {
    s.checks += p.stat.checks;
    s.probes.push_back(p.stat);
  }
  return s;
}

}  // namespace dcpim::sim
