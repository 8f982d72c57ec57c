// Network: owns the simulator, RNG, devices, hosts and flows.
//
// The Network is the composition root of a simulation: a topology builder
// populates it with switches and protocol hosts, a workload generator
// schedules flows into it, and observers (stats module) subscribe to flow
// completion and payload delivery for utilization accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/config.h"
#include "net/device.h"
#include "net/flow.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace dcpim::net {

class Host;

class Network {
 public:
  explicit Network(NetConfig cfg);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }
  const NetConfig& config() const { return cfg_; }

  // --- data-packet ledger (DESIGN.md §13) ----------------------------------
  /// Internal: hands `p`, a data packet Host::make_data_packet has just
  /// allocated, to a PacketPtr whose deleter counts its free.
  PacketPtr count_data_packet(Packet* p) {
    ++data_packets_made_;
    return PacketPtr(p, PacketDeleter(&data_packets_freed_));
  }
  /// Data packets made so far, and how many of them have been freed (at
  /// delivery, drop, fault kill or teardown). The difference is the number
  /// in port queues, events or protocol hands.
  std::uint64_t data_packets_made() const { return data_packets_made_; }
  std::uint64_t data_packets_freed() const { return data_packets_freed_; }

  // --- fabric constants (written once by Topology::finalize) ---------------
  /// Bandwidth-delay product at the access link for the longest pair: the
  /// paper's short-flow threshold and token-window unit.
  Bytes bdp() const { return require_fabric().bdp; }
  /// Longest unloaded RTT of a full data packet out, a control packet back.
  Time max_data_rtt() const { return require_fabric().max_data_rtt; }
  /// Longest unloaded control-packet RTT (dcPIM's cRTT, §3.3).
  Time max_control_rtt() const { return require_fabric().max_control_rtt; }
  void set_fabric(Bytes bdp, Time max_data_rtt, Time max_control_rtt) {
    fabric_ = {bdp, max_data_rtt, max_control_rtt};
  }

  /// Constructs and registers a device. T must derive from Device and take
  /// (Network&, args...) as constructor arguments.
  template <typename T, typename... Args>
  T* add_device(Args&&... args) {
    auto dev = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T* raw = dev.get();
    register_device(std::move(dev));
    return raw;
  }

  /// Connects two devices with a bidirectional link (one port each way).
  static void connect(Device& a, Device& b, const PortConfig& a_to_b,
                      const PortConfig& b_to_a);
  static void connect(Device& a, Device& b, const PortConfig& both) {
    connect(a, b, both, both);
  }

  // --- hosts ---------------------------------------------------------------
  void register_host(Host* host);  ///< called by Host constructor
  Host* host(int host_id) const { return hosts_.at(host_id); }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }

  // --- flows ----------------------------------------------------------------
  /// Creates a flow and schedules its arrival at the sender at `start`.
  Flow* create_flow(int src, int dst, Bytes size, TimePoint start);
  Flow* flow(std::uint64_t id) const;
  std::size_t num_flows() const { return flows_.size(); }
  const std::vector<std::unique_ptr<Flow>>& flows() const { return flows_; }

  /// Receiver-side completion notification (sets finish_time, fires hook).
  void flow_completed(Flow& f);

  // --- observers -------------------------------------------------------------
  using FlowObserver = std::function<void(const Flow&)>;
  using ArrivalObserver = std::function<void(const Flow&)>;
  using PayloadObserver = std::function<void(Bytes, TimePoint)>;
  using DropObserver =
      std::function<void(const Packet&, const Port&, DropReason)>;
  using InjectObserver = std::function<void(const Packet&)>;
  /// Fault-plan targeted-drop hook (harness::FaultInjector): returns true
  /// if `p` must be killed at `port`. Consulted by Port::enqueue for every
  /// packet while installed; draws come from port.fault_rng() so the hook
  /// never touches the workload RNG.
  using FaultFilter = std::function<bool(const Packet&, Port&)>;

  void add_flow_observer(FlowObserver fn) {
    flow_observers_.push_back(std::move(fn));
  }
  /// Observer fired when a flow arrives at its sender (start time).
  void add_arrival_observer(ArrivalObserver fn) {
    arrival_observers_.push_back(std::move(fn));
  }
  void add_payload_observer(PayloadObserver fn) {
    payload_observers_.push_back(std::move(fn));
  }
  void add_drop_observer(DropObserver fn) {
    drop_observers_.push_back(std::move(fn));
  }
  /// Observer fired when a host injects a packet into its NIC (before any
  /// queueing). Used by the audit layer for byte-conservation ledgers.
  void add_inject_observer(InjectObserver fn) {
    inject_observers_.push_back(std::move(fn));
  }

  /// Internal: fired by Host::accept_data for each fresh payload byte batch.
  void notify_payload(Bytes fresh, TimePoint at) {
    for (auto& fn : payload_observers_) fn(fresh, at);
  }
  /// Installs/clears the targeted-drop fault filter (one at a time; the
  /// FaultInjector owns it for the lifetime of an experiment).
  void set_fault_filter(FaultFilter fn) { fault_filter_ = std::move(fn); }
  void clear_fault_filter() { fault_filter_ = nullptr; }
  bool has_fault_filter() const { return static_cast<bool>(fault_filter_); }
  /// Internal: Port::enqueue asks whether the filter kills this packet.
  bool fault_filter_drop(const Packet& p, Port& port) {
    return fault_filter_(p, port);
  }

  /// Internal: fired by ports on any drop.
  void notify_drop(const Packet& p, const Port& port, DropReason reason) {
    for (auto& fn : drop_observers_) fn(p, port, reason);
  }
  /// Internal: fired by Host::send for every injected packet.
  void notify_injected(const Packet& p) {
    for (auto& fn : inject_observers_) fn(p);
  }

  // --- aggregate statistics ---------------------------------------------------
  std::uint64_t total_drops() const;
  /// Drops attributed to injected faults (is_injected_drop reasons) only.
  std::uint64_t total_injected_drops() const;
  std::uint64_t total_trims() const;
  /// Sum of per-host delivery counters (Host::payload_delivered) — each
  /// host counts its own received payload, so the hot path never writes a
  /// global; this aggregate is computed on demand by probes and tests.
  Bytes total_payload_delivered() const;
  std::uint64_t completed_flows = 0;

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

 private:
  struct Fabric {
    Bytes bdp{};
    Time max_data_rtt{};
    Time max_control_rtt{};
  };
  const Fabric& require_fabric() const {
    DCPIM_CHECK(fabric_.bdp > Bytes{},
                "fabric constants read before a topology set them");
    return fabric_;
  }
  void register_device(std::unique_ptr<Device> dev);

  std::vector<FlowObserver> flow_observers_;
  std::vector<ArrivalObserver> arrival_observers_;
  std::vector<PayloadObserver> payload_observers_;
  std::vector<DropObserver> drop_observers_;
  std::vector<InjectObserver> inject_observers_;
  FaultFilter fault_filter_;

  NetConfig cfg_;
  /// Declared before sim_ and devices_ on purpose: members destroy in
  /// reverse order, so the data packets that pending callbacks and port
  /// rings (queued, in serialization and in flight) still hold are freed
  /// while the counter their deleters point at is alive.
  std::uint64_t data_packets_made_ = 0;
  std::uint64_t data_packets_freed_ = 0;
  sim::Simulator sim_;
  Rng rng_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Host*> hosts_;
  std::vector<std::unique_ptr<Flow>> flows_;  ///< flows_[id - 1] has id `id`
  Fabric fabric_;
};

}  // namespace dcpim::net
