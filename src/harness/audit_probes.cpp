#include "harness/audit_probes.h"

#include <memory>
#include <string>
#include <vector>

#include "core/dcpim_host.h"
#include "net/device.h"
#include "net/host.h"
#include "net/switch.h"

namespace dcpim::harness {

namespace {

/// Per-flow payload ledger filled by the inject/drop observers. In-flight
/// and duplicate bytes cannot be observed directly, so the probe checks the
/// conservation law through inequalities that hold at every instant:
///
///   delivered(f) <= size(f)                     (dedup correctness)
///   finished(f)  => delivered(f) == size(f)     (completion correctness)
///   delivered(f) + dropped(f) <= injected(f)    (no bytes out of thin air;
///                                                slack = in-flight + dup +
///                                                trimmed payload)
///
/// Drops are attributed by cause: bytes killed by injected faults
/// (loss windows, downed links, targeted drops — net::is_injected_drop)
/// are ledgered apart from protocol/buffer drops, so a conservation
/// violation message names how much of the loss was deliberate and a
/// protocol bug cannot hide behind an active FaultPlan (DESIGN.md §11).
/// Gray drops (silent Bernoulli loss with no link-down signal) get their
/// own bucket inside the injected share: a survivability run can then read
/// off how much loss was *invisible* to the control plane versus the
/// binary failures every protocol is told about.
struct FlowLedger {
  struct Entry {
    Bytes injected{};       ///< payload bytes handed to the sender NIC
    Bytes dropped_fault{};  ///< bytes killed by binary injected faults
    Bytes dropped_gray{};   ///< bytes killed silently (DropReason::kGrayLoss)
    Bytes dropped_proto{};  ///< payload bytes lost to buffers/Aeolus
    Bytes dropped() const {
      return dropped_fault + dropped_gray + dropped_proto;
    }
  };
  std::vector<Entry> flows;  ///< by flow id (Network ids run 1..n)

  Entry& entry(std::uint64_t id) {
    if (flows.size() <= id) flows.resize(id + 1);
    return flows[id];
  }
  Entry lookup(std::uint64_t id) const {
    return id < flows.size() ? flows[id] : Entry{};
  }
};

// Sweeps run every few simulated microseconds and nearly always pass, so
// each check builds its message (and the flow or port tag in it) only
// inside its failure branch.

void check_flow_conservation(net::Network& net, const FlowLedger& ledger,
                             sim::Auditor::Context& ctx) {
  Bytes delivered_sum{};
  for (const auto& f : net.flows()) {
    const Bytes delivered = f->rx ? f->rx->received_bytes() : Bytes{};
    delivered_sum += delivered;
    const auto tag = [&f] { return "flow " + std::to_string(f->id); };
    if (delivered > f->size) {
      ctx.fail(tag() + " delivered " + to_string(delivered) +
               ", more than its size " + to_string(f->size));
    }
    if (f->finished() && delivered != f->size) {
      ctx.fail(tag() + " finished with " + to_string(delivered) + " of " +
               to_string(f->size) + " delivered");
    }
    const FlowLedger::Entry entry = ledger.lookup(f->id);
    if (delivered + entry.dropped() > entry.injected) {
      ctx.fail(tag() + " accounts " + to_string(delivered) + " delivered + " +
               to_string(entry.dropped()) + " dropped (" +
               to_string(entry.dropped_fault) + " fault-injected, " +
               to_string(entry.dropped_gray) + " gray) against " +
               "only " + to_string(entry.injected) + " injected");
    }
  }
  if (delivered_sum != net.total_payload_delivered()) {
    ctx.fail("per-flow delivered sum " + to_string(delivered_sum) +
             " != network total " +
             to_string(net.total_payload_delivered()));
  }
}

void check_queue_occupancy(net::Network& net, sim::Auditor::Context& ctx) {
  for (const auto& dev : net.devices()) {
    for (const auto& port : dev->ports) {
      const auto tag = [&dev, &port] {
        return dev->name() + " port " + std::to_string(port->index());
      };
      Bytes prio_sum{};
      for (int prio = 0; prio < net::kNumPriorities; ++prio) {
        const Bytes q = port->queued_bytes(prio);
        if (q < Bytes{}) {
          ctx.fail(tag() + " priority " + std::to_string(prio) +
                   " holds negative bytes: " + to_string(q));
        }
        prio_sum += q;
      }
      if (prio_sum != port->queued_bytes()) {
        ctx.fail(tag() + " per-priority bytes sum to " +
                 to_string(prio_sum) + " but total says " +
                 to_string(port->queued_bytes()));
      }
      const net::PortConfig& cfg = port->config();
      if (cfg.buffer_bytes < Bytes{}) continue;
      const Bytes data_queued = port->queued_bytes() - port->queued_bytes(0);
      if (data_queued > cfg.buffer_bytes) {
        ctx.fail(tag() + " data queues hold " + to_string(data_queued) +
                 ", above the " + to_string(cfg.buffer_bytes) + " buffer");
      }
      // Trimming bypasses the control budget by design (headers of trimmed
      // data land on priority 0 unconditionally), so the control bound only
      // applies on non-trimming ports.
      if (!cfg.trim_enable && port->queued_bytes(0) > cfg.buffer_bytes) {
        ctx.fail(tag() + " control queue holds " +
                 to_string(port->queued_bytes(0)) + ", above the " +
                 to_string(cfg.buffer_bytes) + " buffer");
      }
    }
  }
}

/// PFC pause-ledger invariants (per switch, per PFC-tracked ingress slot):
/// the byte ledger never goes negative, the pause flag sits on the correct
/// side of the pause/resume hysteresis band (pfc_update() runs synchronously
/// with every ledger change, so this holds at any instant between events),
/// and every ledgered byte is still buffered on some egress queue of the
/// same switch. Trimming rewrites packet sizes after ingress accounting, so
/// the occupancy bound is skipped on switches with any trim-enabled port
/// (no supported config combines PFC with trimming).
void check_pfc_pause_ledger(net::Network& net, sim::Auditor::Context& ctx) {
  for (const auto& dev : net.devices()) {
    auto* sw = dynamic_cast<net::Switch*>(dev.get());
    if (sw == nullptr) continue;
    Bytes ledger_sum{};
    Bytes queued_sum{};
    bool any_pfc = false;
    bool any_trim = false;
    for (const auto& port : sw->ports) {
      queued_sum += port->queued_bytes();
      any_pfc = any_pfc || port->config().pfc_enable;
      any_trim = any_trim || port->config().trim_enable;
      if (!port->config().pfc_enable) continue;
      const auto tag = [sw, &port] {
        return sw->name() + " ingress " + std::to_string(port->index());
      };
      const Bytes buffered = sw->ingress_buffered(port->index());
      ledger_sum += buffered;
      if (buffered < Bytes{}) {
        ctx.fail(tag() + " PFC ledger went negative: " + to_string(buffered));
      }
      const net::PortConfig& cfg = port->config();
      if (sw->ingress_paused(port->index())) {
        if (buffered < cfg.pfc_resume_threshold) {
          ctx.fail(tag() + " still paused at " + to_string(buffered) +
                   ", below the resume threshold " +
                   to_string(cfg.pfc_resume_threshold));
        }
      } else if (buffered > cfg.pfc_pause_threshold) {
        ctx.fail(tag() + " not paused at " + to_string(buffered) +
                 ", above the pause threshold " +
                 to_string(cfg.pfc_pause_threshold));
      }
    }
    if (any_pfc && !any_trim && ledger_sum > queued_sum) {
      ctx.fail(sw->name() + " PFC ledgers account " + to_string(ledger_sum) +
               " but egress queues hold only " + to_string(queued_sum));
    }
  }
}

void check_data_packet_ledger(net::Network& net, sim::Auditor::Context& ctx) {
  const std::uint64_t made = net.data_packets_made();
  const std::uint64_t freed = net.data_packets_freed();
  if (freed > made) {
    ctx.fail("freed " + std::to_string(freed) +
             " data packets but made only " + std::to_string(made));
  }
  if (freed >= made) return;
  for (const auto& dev : net.devices()) {
    for (const auto& port : dev->ports) {
      if (!port->idle()) return;  // data may still be on the wire
    }
  }
  ctx.fail("fabric drained with " + std::to_string(made - freed) +
           " data packet(s) never freed (made " + std::to_string(made) +
           ", freed " + std::to_string(freed) + ")");
}

template <typename Fn>
void for_each_dcpim_host(net::Network& net, Fn&& fn) {
  for (int h = 0; h < net.num_hosts(); ++h) {
    if (auto* host = dynamic_cast<core::DcpimHost*>(net.host(h))) {
      fn(*host);
    }
  }
}

}  // namespace

void install_standard_probes(sim::Auditor& auditor, net::Network& net) {
  auto ledger = std::make_shared<FlowLedger>();
  net.add_inject_observer([ledger](const net::Packet& p) {
    if (p.payload > Bytes{}) ledger->entry(p.flow_id).injected += p.payload;
  });
  net.add_drop_observer([ledger](const net::Packet& p, const net::Port&,
                                 net::DropReason reason) {
    if (p.payload <= Bytes{}) return;
    auto& entry = ledger->entry(p.flow_id);
    if (reason == net::DropReason::kGrayLoss) {
      entry.dropped_gray += p.payload;
    } else if (net::is_injected_drop(reason)) {
      entry.dropped_fault += p.payload;
    } else {
      entry.dropped_proto += p.payload;
    }
  });

  auditor.add_probe("flow-byte-conservation",
                    [&net, ledger](sim::Auditor::Context& ctx) {
                      check_flow_conservation(net, *ledger, ctx);
                    });
  auditor.add_probe("queue-occupancy", [&net](sim::Auditor::Context& ctx) {
    check_queue_occupancy(net, ctx);
  });
  // Drop attribution stays coherent: the injected subset can never exceed
  // the total, and a port with no fault source ever configured must not
  // claim injected drops (loss windows rewrite loss_rate back to 0 only
  // after the window — a nonzero count with a zero rate is legal then, but
  // an injected count above the all-cause count never is).
  auditor.add_probe("injected-drop-attribution",
                    [&net](sim::Auditor::Context& ctx) {
                      for (const auto& dev : net.devices()) {
                        for (const auto& port : dev->ports) {
                          if (port->injected_drops > port->drops) {
                            ctx.fail(dev->name() + " port " +
                                     std::to_string(port->index()) +
                                     " attributes " +
                                     std::to_string(port->injected_drops) +
                                     " injected drops out of only " +
                                     std::to_string(port->drops) + " total");
                          }
                        }
                      }
                    });
  auditor.add_probe("dcpim-token-accounting",
                    [&net](sim::Auditor::Context& ctx) {
                      std::vector<std::string> violations;
                      for_each_dcpim_host(net, [&](core::DcpimHost& host) {
                        host.audit_token_accounting(violations);
                      });
                      for (auto& v : violations) ctx.fail(std::move(v));
                    });
  auditor.add_probe("dcpim-matching", [&net](sim::Auditor::Context& ctx) {
    std::vector<std::string> violations;
    for_each_dcpim_host(net, [&](core::DcpimHost& host) {
      host.audit_matching(violations);
    });
    for (auto& v : violations) ctx.fail(std::move(v));
  });
  auditor.add_probe("dcpim-channel-ledger",
                    [&net](sim::Auditor::Context& ctx) {
                      std::vector<std::string> violations;
                      for_each_dcpim_host(net, [&](core::DcpimHost& host) {
                        host.audit_channel_ledger(violations);
                      });
                      for (auto& v : violations) ctx.fail(std::move(v));
                    });
  auditor.add_probe("pfc-pause-ledger", [&net](sim::Auditor::Context& ctx) {
    check_pfc_pause_ledger(net, ctx);
  });
  // Data-packet ledger (the probe keeps its historical name): the freed
  // counter can never outrun the made counter, and whenever the fabric is
  // drained (no port has a packet queued, serializing or in flight) every
  // data packet must have been freed, since only ports hold packets between
  // events; one still held means protocol code kept it. The test is on the
  // fabric, not on the event queue, because dcPIM's epoch timers keep
  // events pending for the whole run.
  auditor.add_probe("packet-pool-hygiene",
                    [&net](sim::Auditor::Context& ctx) {
                      check_data_packet_ledger(net, ctx);
                    });

  // Event-driven lane (add_event_probe: no sweep fn): every DcpimHost
  // re-runs its token/matching/channel-ledger checks at its own epoch
  // rollover, so a violation confined to one epoch is caught even if the
  // periodic sweep never lands inside it. The grant/accept double-spend
  // check in particular is epoch-scoped state that GC erases two epochs
  // later — the rollover hook fires after GC but before the new matching
  // phase, when epoch m-1's ledger is final and still alive.
  const std::size_t epoch_probe =
      auditor.add_event_probe("dcpim-epoch-rollover");
  for_each_dcpim_host(net, [&](core::DcpimHost& host) {
    host.set_epoch_audit_hook(
        [&auditor, &net, &host, epoch_probe](std::uint64_t epoch) {
          std::vector<std::string> violations;
          host.audit_token_accounting(violations);
          host.audit_matching(violations);
          host.audit_channel_ledger(violations);
          auditor.count_check(epoch_probe);
          for (auto& v : violations) {
            auditor.report(epoch_probe, net.sim().now(),
                           "epoch " + std::to_string(epoch) +
                               " rollover: " + std::move(v));
          }
        });
  });
}

}  // namespace dcpim::harness
