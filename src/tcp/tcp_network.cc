#include "tcp/tcp_network.h"

#include <stdexcept>
#include <string>

namespace phantom::tcp {

namespace {
constexpr std::size_t kPlumbingQueueLimit = 100'000;  // never the bottleneck
}

void SinkHost::attach(int flow, TcpSink& sink) {
  if (flow < 0) {
    throw std::invalid_argument{"SinkHost::attach: negative flow id " +
                                std::to_string(flow)};
  }
  const auto i = static_cast<std::size_t>(flow);
  if (i >= sinks_.size()) sinks_.resize(i + 1, nullptr);
  if (sinks_[i] == nullptr) sinks_[i] = &sink;
}

TcpNetwork::RouterId TcpNetwork::add_router(std::string name) {
  routers_.push_back(std::make_unique<Router>(*sim_, std::move(name)));
  return routers_.size() - 1;
}

TcpNetwork::TrunkId TcpNetwork::add_trunk(RouterId from, RouterId to,
                                          TcpTrunkOptions options) {
  if (from >= routers_.size() || to >= routers_.size() || from == to) {
    throw std::out_of_range{"add_trunk: bad router ids"};
  }
  Trunk t;
  t.from = from;
  t.to = to;
  auto policy = options.policy ? options.policy(*sim_, options.rate)
                               : std::unique_ptr<QueuePolicy>{};
  t.forward_port = routers_[from]->add_port(
      options.rate, options.queue_limit,
      PacketLink{*sim_, options.delay, *routers_[to], options.loss},
      std::move(policy));
  t.reverse_port = routers_[to]->add_port(
      options.rate, kPlumbingQueueLimit,
      PacketLink{*sim_, options.delay, *routers_[from], options.loss},
      nullptr);
  trunks_.push_back(t);
  return trunks_.size() - 1;
}

TcpNetwork::SinkNodeId TcpNetwork::add_sink_node(RouterId at,
                                                 TcpTrunkOptions options) {
  if (at >= routers_.size()) {
    throw std::out_of_range{"add_sink_node: bad router id"};
  }
  auto host = std::make_unique<SinkHost>();
  auto policy = options.policy ? options.policy(*sim_, options.rate)
                               : std::unique_ptr<QueuePolicy>{};
  const std::size_t port = routers_[at]->add_port(
      options.rate, options.queue_limit,
      PacketLink{*sim_, options.delay, *host, options.loss},
      std::move(policy));
  sink_nodes_.push_back(SinkNode{
      at, port, std::move(host),
      PacketLink{*sim_, options.delay, *routers_[at]}});
  return sink_nodes_.size() - 1;
}

TcpNetwork::FlowId TcpNetwork::add_flow(RouterId ingress,
                                        const std::vector<TrunkId>& path,
                                        SinkNodeId sink_id, RenoConfig config,
                                        sim::Rate access_rate,
                                        sim::Time access_delay,
                                        TcpSinkOptions sink_options) {
  FlowOptions options;
  options.config = config;
  options.access_rate = access_rate;
  options.access_delay = access_delay;
  options.sink = sink_options;
  return add_flow(ingress, path, sink_id, options);
}

TcpNetwork::FlowId TcpNetwork::add_flow(RouterId ingress,
                                        const std::vector<TrunkId>& path,
                                        SinkNodeId sink_id,
                                        FlowOptions options) {
  const RenoConfig& config = options.config;
  const sim::Rate access_rate = options.access_rate;
  const sim::Time access_delay = options.access_delay;
  const TcpSinkOptions sink_options = options.sink;
  if (ingress >= routers_.size()) {
    throw std::out_of_range{"add_flow: bad ingress router"};
  }
  if (sink_id >= sink_nodes_.size()) {
    throw std::out_of_range{"add_flow: bad sink node"};
  }
  RouterId cursor = ingress;
  for (const TrunkId t : path) {
    if (t >= trunks_.size() || trunks_[t].from != cursor) {
      throw std::invalid_argument{"add_flow: path is not connected"};
    }
    cursor = trunks_[t].to;
  }
  SinkNode& node = sink_nodes_[sink_id];
  if (node.at != cursor) {
    throw std::invalid_argument{
        "add_flow: sink node does not hang off the path's last router"};
  }

  const int flow = static_cast<int>(sources_.size());

  // Source-side access port: serializes the window's bursts onto the
  // access link before they reach the ingress router.
  access_ports_.push_back(std::make_unique<PacketPort>(
      *sim_, access_rate, kPlumbingQueueLimit,
      PacketLink{*sim_, access_delay, *routers_[ingress]}, nullptr));
  PacketPort* access = access_ports_.back().get();

  TcpSender::Emitter emitter = [access](Packet p) { access->send(p); };
  std::unique_ptr<TcpSender> source;
  switch (options.kind) {
    case SenderKind::kReno:
      source = std::make_unique<RenoSource>(*sim_, flow, config,
                                            std::move(emitter));
      break;
    case SenderKind::kTahoe:
      source = std::make_unique<TahoeSource>(*sim_, flow, config,
                                             std::move(emitter));
      break;
    case SenderKind::kAggressive:
      source = std::make_unique<AggressiveSource>(*sim_, flow, config,
                                                  std::move(emitter));
      break;
    case SenderKind::kVegas: {
      VegasConfig vcfg = options.vegas;
      vcfg.base = config;
      source = std::make_unique<VegasSource>(*sim_, flow, vcfg,
                                             std::move(emitter));
      break;
    }
  }

  // Backward port at the ingress router delivering ACKs / quenches to
  // the source.
  const std::size_t to_source_port = routers_[ingress]->add_port(
      access_rate, kPlumbingQueueLimit,
      PacketLink{*sim_, access_delay, *source}, nullptr);

  // Per-router routes, walking the path.
  std::size_t backward = to_source_port;
  cursor = ingress;
  for (const TrunkId t : path) {
    routers_[cursor]->route_flow(flow, trunks_[t].forward_port, backward);
    backward = trunks_[t].reverse_port;
    cursor = trunks_[t].to;
  }
  routers_[cursor]->route_flow(flow, node.port, backward);

  // Receiver: ACKs cross the sink node's return link into the
  // terminating router and follow the backward route.
  auto sink = std::make_unique<TcpSink>(
      *sim_, flow,
      [link = node.return_link](Packet ack) mutable { link.deliver(ack); },
      sink_options);
  node.host->attach(flow, *sink);

  sources_.push_back(std::move(source));
  sinks_.push_back(std::move(sink));
  return static_cast<FlowId>(flow);
}

void TcpNetwork::start_all(sim::Time first, sim::Time stagger) {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i]->start(first + stagger * static_cast<std::int64_t>(i));
  }
}

PacketPort& TcpNetwork::trunk_port(TrunkId t) {
  const Trunk& trunk = trunks_.at(t);
  return routers_[trunk.from]->port(trunk.forward_port);
}

PacketPort& TcpNetwork::sink_port(SinkNodeId s) {
  const SinkNode& node = sink_nodes_.at(s);
  return routers_[node.at]->port(node.port);
}

}  // namespace phantom::tcp
