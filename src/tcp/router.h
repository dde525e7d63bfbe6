// IP router: per-flow forward/backward routing over packet ports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tcp/packet.h"
#include "tcp/packet_port.h"

namespace phantom::tcp {

/// A router is a set of output ports plus a flow routing table. Data
/// packets of a flow exit via the flow's forward port; ACK and Source
/// Quench packets exit via its backward port. A Source Quench requested
/// by a forward port's policy is materialized here and injected onto the
/// flow's backward path toward the source.
class Router final : public PacketSink {
 public:
  explicit Router(sim::Simulator& sim, std::string name = "router")
      : sim_{&sim}, name_{std::move(name)} {
    (void)sim_;
  }

  /// Adds an output port; returns its index.
  std::size_t add_port(sim::Rate rate, std::size_t queue_limit,
                       PacketLink link, std::unique_ptr<QueuePolicy> policy);

  /// Routes a flow. A flow may be routed at most once per router. Flow
  /// ids index a dense per-flow table, so they must be non-negative
  /// (std::invalid_argument otherwise) and should be small, as
  /// TcpNetwork's are (flows count up from 0).
  void route_flow(int flow, std::size_t forward_port,
                  std::size_t backward_port);

  void receive_packet(Packet packet) override;

  [[nodiscard]] PacketPort& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const PacketPort& port(std::size_t i) const {
    return *ports_.at(i);
  }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t unrouted_packets() const { return unrouted_; }
  [[nodiscard]] std::uint64_t quenches_injected() const { return quenches_; }

 private:
  struct Route {
    static constexpr std::size_t kUnrouted = SIZE_MAX;
    std::size_t forward_port = kUnrouted;
    std::size_t backward_port = kUnrouted;

    [[nodiscard]] bool routed() const { return forward_port != kUnrouted; }
  };
  /// The flow's route, or nullptr when the flow is not routed here.
  [[nodiscard]] const Route* find_route(int flow) const {
    const auto i = static_cast<std::size_t>(flow);  // negative -> huge
    return i < routes_.size() && routes_[i].routed() ? &routes_[i] : nullptr;
  }

  sim::Simulator* sim_;
  std::string name_;
  std::vector<std::unique_ptr<PacketPort>> ports_;
  std::vector<Route> routes_;  // indexed by flow id
  std::uint64_t unrouted_ = 0;
  std::uint64_t quenches_ = 0;
};

}  // namespace phantom::tcp
