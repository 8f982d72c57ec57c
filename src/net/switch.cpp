#include "net/switch.h"

#include "util/check.h"

#include "util/logging.h"

namespace dcpim::net {

namespace {

/// Per-switch seed for the LB RNG stream. Same SplitMix64 shape as the port
/// fault streams, but a different salt constant keeps the two families of
/// streams disjoint even for the same (seed, device) coordinates.
std::uint64_t lb_stream_seed(std::uint64_t net_seed, int device_id) {
  std::uint64_t z =
      net_seed ^ (0xD1B54A32D192ED03ull +
                  (static_cast<std::uint64_t>(device_id + 1) << 23));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(LbPolicy policy) {
  switch (policy) {
    case LbPolicy::kSpray: return "spray";
    case LbPolicy::kEcmpFlow: return "ecmp_flow";
    case LbPolicy::kFlowlet: return "flowlet";
    case LbPolicy::kEcmpWeighted: return "ecmp_weighted";
  }
  return "?";
}

Switch::Switch(Network& net, std::string name)
    : Device(net, Kind::Switch, std::move(name)) {}

void Switch::add_route(int dst, std::uint16_t port_index) {
  const auto row = static_cast<std::size_t>(dst);
  DCPIM_CHECK(dst >= 0 && row + 2 >= hop_begin_.size(),
              "routes are added in destination order");
  DCPIM_CHECK(port_index < ports.size(),
              "next hop names a port that is not wired");
  const std::uint32_t end = hop_begin_.back();
  hop_begin_.resize(row + 2, end);
  hop_ports_.push_back(ports[port_index].get());
  ++hop_begin_.back();
}

std::span<Port* const> Switch::next_hops(int dst) const {
  const auto row = static_cast<std::size_t>(dst);
  DCPIM_CHECK(dst >= 0 && row + 1 < hop_begin_.size(),
              "packet destination outside routing table");
  return {hop_ports_.data() + hop_begin_[row],
          hop_ports_.data() + hop_begin_[row + 1]};
}

/// Rate-weighted ECMP: the draw probability of each candidate follows its
/// *current* egress rate, so degraded links attract proportionally less
/// traffic and downed links none — modelling a telemetry-informed LB.
std::size_t Switch::weighted_pick(std::span<Port* const> cands) {
  double total = 0;
  for (const Port* port : cands) {
    if (port->link_up()) total += fratio(port->config().rate, kGbps);
  }
  if (total <= 0.0) {
    // Everything down or rate-less: uniform, the packet drops at the port.
    return lb_rng_.uniform_int(cands.size());
  }
  double draw = lb_rng_.uniform() * total;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (!cands[i]->link_up()) continue;
    draw -= fratio(cands[i]->config().rate, kGbps);
    if (draw < 0.0) return i;
  }
  return cands.size() - 1;  // fp rounding spill-over
}

Port* Switch::select_egress(const Packet& p) {
  const std::span<Port* const> cands = next_hops(p.dst);
  DCPIM_CHECK(!cands.empty(), "no route to destination");
  std::size_t pick = 0;
  if (cands.size() > 1) {
    switch (network().config().lb_policy) {
      case LbPolicy::kSpray:
        // Workload-RNG draw, exactly as the paper's per-packet spraying has
        // always worked here — clean-run fingerprints depend on this stream
        // assignment staying put.
        pick = network().rng().uniform_int(cands.size());
        break;
      case LbPolicy::kEcmpFlow: {
        // Per-flow ECMP: stable hash of the flow id.
        std::uint64_t h = p.flow_id * 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
        pick = h % cands.size();
        break;
      }
      case LbPolicy::kFlowlet: {
        // A gap of flowlet_gap since this flow's last packet here re-draws
        // its path; inside a burst the pick is sticky (packet order holds).
        FlowletState& st = flowlet_[p.flow_id];
        const TimePoint now = network().sim().now();
        if (!st.valid || now - st.last >= network().config().flowlet_gap) {
          st.pick =
              static_cast<std::uint16_t>(lb_rng_.uniform_int(cands.size()));
          st.valid = true;
        }
        st.last = now;
        pick = st.pick % cands.size();
        break;
      }
      case LbPolicy::kEcmpWeighted:
        pick = weighted_pick(cands);
        break;
    }
  }
  return cands[pick];
}

void Switch::on_port_added(Port& /*port*/) {
  ingress_bytes_.resize(ports.size(), Bytes{});
  ingress_paused_.resize(ports.size(), false);
  // Topology-build time: the device id is assigned by now (it is -1 during
  // construction) and no LB draw has happened yet, so reseeding per added
  // port is deterministic and idempotent in effect.
  lb_rng_.reseed(lb_stream_seed(network().config().seed, device_id()));
}

void Switch::pfc_account_arrival(Packet& p, Port* in) {
  // A port names its reverse as the ingress only when that runs PFC
  // (Device::receive), so a hop without PFC never touches the ingress.
  if (in == nullptr) return;
  DCPIM_DCHECK(in->config().pfc_enable, "ingress named without PFC");
  const auto idx = static_cast<std::size_t>(in->index());
  p.pfc_ingress = static_cast<std::int16_t>(in->index());
  ingress_bytes_[idx] += p.size;
  pfc_update(in->index());
}

void Switch::pfc_update(int ingress_index) {
  const auto idx = static_cast<std::size_t>(ingress_index);
  Port* in = ports[idx].get();
  const auto& cfg = in->config();
  const bool should_pause = ingress_bytes_[idx] > cfg.pfc_pause_threshold;
  const bool should_resume = ingress_bytes_[idx] < cfg.pfc_resume_threshold;
  if (should_pause && !ingress_paused_[idx]) {
    ingress_paused_[idx] = true;
    ++pfc_pauses_sent;
    // The pause frame crosses the link back to the upstream egress port.
    Port* upstream = in->reverse();
    network().sim().schedule_after(
        in->config().propagation, [upstream]() { upstream->set_paused(true); });
  } else if (should_resume && ingress_paused_[idx]) {
    ingress_paused_[idx] = false;
    Port* upstream = in->reverse();
    network().sim().schedule_after(
        in->config().propagation, [upstream]() { upstream->set_paused(false); });
  }
}

// sa-hot: per-packet forwarding path through every switch hop.
void Switch::receive(PacketPtr p, Port* in) {
  pfc_account_arrival(*p, in);
  Port* out = select_egress(*p);
  out->enqueue(std::move(p));
}

void Switch::on_packet_departed(const Packet& p) {
  if (p.pfc_ingress < 0) return;
  const auto idx = static_cast<std::size_t>(p.pfc_ingress);
  if (idx >= ingress_bytes_.size()) return;
  ingress_bytes_[idx] -= p.size;
  // The departing packet keeps its tag only while buffered here; the next
  // switch re-tags it on arrival.
  const_cast<Packet&>(p).pfc_ingress = -1;
  pfc_update(static_cast<int>(idx));
}

}  // namespace dcpim::net
