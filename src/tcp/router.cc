#include "tcp/router.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace phantom::tcp {

std::size_t Router::add_port(sim::Rate rate, std::size_t queue_limit,
                             PacketLink link,
                             std::unique_ptr<QueuePolicy> policy) {
  ports_.push_back(std::make_unique<PacketPort>(
      *sim_, rate, queue_limit, std::move(link), std::move(policy)));
  return ports_.size() - 1;
}

void Router::route_flow(int flow, std::size_t forward_port,
                        std::size_t backward_port) {
  if (flow < 0) {
    throw std::invalid_argument{"route_flow: negative flow id " +
                                std::to_string(flow)};
  }
  if (forward_port >= ports_.size() || backward_port >= ports_.size()) {
    throw std::out_of_range{"route_flow: port index out of range"};
  }
  if (static_cast<std::size_t>(flow) >= routes_.size()) {
    routes_.resize(static_cast<std::size_t>(flow) + 1);
  }
  Route& route = routes_[static_cast<std::size_t>(flow)];
  if (route.routed()) {
    throw std::invalid_argument{"route_flow: flow already routed on " + name_};
  }
  route.forward_port = forward_port;
  route.backward_port = backward_port;
  // Wire the forward port's quench requests onto this flow's backward
  // path. The tap is shared by all flows on the port; it routes by the
  // *packet's* flow id, so a single registration suffices.
  ports_[forward_port]->set_quench_tap([this](const Packet& offender) {
    const Route* r = find_route(offender.flow);
    if (r == nullptr) return;
    ++quenches_;
    ports_[r->backward_port]->send(Packet::source_quench(offender.flow));
  });
}

void Router::receive_packet(Packet packet) {
  const Route* route = find_route(packet.flow);
  if (route == nullptr) {
    ++unrouted_;
    return;
  }
  switch (packet.kind) {
    case PacketKind::kData:
      ports_[route->forward_port]->send(packet);
      break;
    case PacketKind::kAck:
    case PacketKind::kSourceQuench:
      ports_[route->backward_port]->send(packet);
      break;
  }
}

}  // namespace phantom::tcp
