#include "net/network.h"

#include "util/check.h"

#include "net/host.h"
#include "net/switch.h"
#include "util/logging.h"

namespace dcpim::net {

Network::Network(NetConfig cfg)
    : cfg_(cfg), rng_(cfg.seed) {}

Network::~Network() = default;

void Network::register_device(std::unique_ptr<Device> dev) {
  dev->device_id_ = static_cast<int>(devices_.size());
  devices_.push_back(std::move(dev));
}

void Network::connect(Device& a, Device& b, const PortConfig& a_to_b,
                      const PortConfig& b_to_a) {
  Port* pa = a.add_port(a_to_b);
  Port* pb = b.add_port(b_to_a);
  pa->connect(&b, pb);
  pb->connect(&a, pa);
}

void Network::register_host(Host* host) {
  const auto id = static_cast<std::size_t>(host->host_id());
  if (hosts_.size() <= id) hosts_.resize(id + 1, nullptr);
  DCPIM_CHECK(hosts_[id] == nullptr, "duplicate host id");
  hosts_[id] = host;
}

Flow* Network::create_flow(int src, int dst, Bytes size, TimePoint start) {
  DCPIM_CHECK_NE(src, dst, "self-flows are not modelled");
  DCPIM_CHECK_GT(size, Bytes{}, "flows must carry payload");
  // Fully initialized before publication: aggregate construction, so no
  // observer can ever see a half-built Flow.
  auto flow = std::make_unique<Flow>(Flow{.id = flows_.size() + 1,
                                          .src = src,
                                          .dst = dst,
                                          .size = size,
                                          .start_time = start});
  Flow* raw = flow.get();
  flows_.push_back(std::move(flow));
  sim_.schedule_at(start, [this, raw]() {
    for (auto& fn : arrival_observers_) fn(*raw);
    hosts_.at(static_cast<std::size_t>(raw->src))->on_flow_arrival(*raw);
  });
  return raw;
}

Flow* Network::flow(std::uint64_t id) const {
  // Ids run 1..n in flows_ order and flows are never erased.
  return id >= 1 && id <= flows_.size() ? flows_[id - 1].get() : nullptr;
}

void Network::flow_completed(Flow& f) {
  // The receiving host stamps finish_time before notifying us (the stamp is
  // a host-domain write; see Host::accept_data) — by the time the network
  // hears about a completion the flow must already be finished.
  DCPIM_CHECK(f.finished(), "completion notified without a finish stamp");
  ++completed_flows;
  LOG_DEBUG("flow %llu (%d->%d, %lld B) done, fct=%.2f us",
            static_cast<unsigned long long>(f.id), f.src, f.dst,
            // sa-ok(unit-raw): printf interop
            static_cast<long long>(f.size.raw()), to_us(f.fct()));
  for (auto& fn : flow_observers_) fn(f);
}

Bytes Network::total_payload_delivered() const {
  // Indexed walk in host-id order: hosts_ is a vector, but the indexed form
  // also keeps the field-name-keyed determinism registry (which conflates
  // same-named members across classes) out of the picture.
  Bytes total{};
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i] != nullptr) total += hosts_[i]->payload_delivered();
  }
  return total;
}

std::uint64_t Network::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& dev : devices_) {
    for (const auto& port : dev->ports) n += port->drops;
  }
  return n;
}

std::uint64_t Network::total_injected_drops() const {
  std::uint64_t n = 0;
  for (const auto& dev : devices_) {
    for (const auto& port : dev->ports) n += port->injected_drops;
  }
  return n;
}

std::uint64_t Network::total_trims() const {
  std::uint64_t n = 0;
  for (const auto& dev : devices_) {
    for (const auto& port : dev->ports) n += port->trims;
  }
  return n;
}

}  // namespace dcpim::net
