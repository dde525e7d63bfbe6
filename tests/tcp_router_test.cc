#include "tcp/router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulator.h"
#include "tcp/packet_port.h"
#include "tcp/phantom_policies.h"

namespace phantom::tcp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

class Collector final : public PacketSink {
 public:
  void receive_packet(Packet p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

struct RouterFixture {
  Simulator sim;
  Collector fwd, bwd;
  Router router{sim, "r0"};
  std::size_t fwd_port, bwd_port;

  explicit RouterFixture(std::unique_ptr<QueuePolicy> policy = nullptr) {
    fwd_port = router.add_port(Rate::mbps(10), 64,
                               PacketLink{sim, Time::zero(), fwd},
                               std::move(policy));
    bwd_port = router.add_port(Rate::mbps(10), 64,
                               PacketLink{sim, Time::zero(), bwd}, nullptr);
    router.route_flow(1, fwd_port, bwd_port);
  }
};

TEST(PacketPortTest, SerializesAtLinkRate) {
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 64, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  port.send(Packet::data(1, 0, 512));
  sim.run();
  // 552 bytes at 10 Mb/s = 441.6 us.
  EXPECT_NEAR(sim.now().microseconds(), 441.6, 0.1);
  EXPECT_EQ(port.packets_transmitted(), 1u);
}

TEST(PacketPortTest, OverflowDropsAndCounts) {
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 2, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  for (int i = 0; i < 5; ++i) port.send(Packet::data(1, 512 * i, 512));
  EXPECT_EQ(port.packets_dropped(), 3u);
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(port.max_queue_length(), 2u);
}

TEST(PacketPortTest, DefaultPolicyIsDropTail) {
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 4, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  EXPECT_EQ(port.policy().name(), "droptail");
}

TEST(PacketPortTest, MixedSizesCompleteOnTheirOwnLanes) {
  // Data (552 B) and ACK (40 B) packets interleaved on one 10 Mb/s port:
  // each transmission completes one serialization time after the last,
  // on the lane for its own size, and the packets leave in FIFO order.
  Simulator sim;
  struct Stamped final : PacketSink {
    explicit Stamped(const Simulator& s) : sim{&s} {}
    void receive_packet(Packet p) override {
      packets.push_back(p);
      at.push_back(sim->now());
    }
    const Simulator* sim;
    std::vector<Packet> packets;
    std::vector<Time> at;
  } sink{sim};
  PacketPort port{sim, Rate::mbps(10), 64, PacketLink{sim, Time::zero(), sink},
                  nullptr};
  const Time data_tx = Time::ns(441'600);  // 552 B at 10 Mb/s
  const Time ack_tx = Time::ns(32'000);    // 40 B at 10 Mb/s
  const bool is_data[] = {true, false, true, false, false, true};
  for (std::int64_t i = 0; i < 6; ++i) {
    port.send(is_data[i] ? Packet::data(1, 512 * i, 512)
                         : Packet::make_ack(1, 512 * i));
  }
  // A late arrival to an idle port starts its own serialization then.
  sim.schedule_at(Time::ms(5), [&port] { port.send(Packet::make_ack(1, 0)); });
  sim.run();

  ASSERT_EQ(sink.packets.size(), 7u);
  Time expected = Time::zero();
  for (std::size_t i = 0; i < 6; ++i) {
    expected += is_data[i] ? data_tx : ack_tx;
    EXPECT_EQ(sink.at[i], expected) << "packet " << i;
    EXPECT_EQ(sink.packets[i].kind,
              is_data[i] ? PacketKind::kData : PacketKind::kAck);
    EXPECT_EQ(is_data[i] ? sink.packets[i].seq : sink.packets[i].ack,
              512 * static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(expected, Time::ns(1'420'800));
  EXPECT_EQ(sink.at[6], Time::ms(5) + ack_tx);
  // One lane for the link's zero delay, one per packet size.
  EXPECT_EQ(sim.lanes_in_use(), 3u);
  EXPECT_EQ(sim.heap_lane_requests(), 0u);
}

/// Drops every data packet; never touches anything else.
class DropAllDataPolicy final : public QueuePolicy {
 public:
  Verdict on_arrival(const Packet&, std::size_t, std::size_t) override {
    return Verdict::discard();
  }
  [[nodiscard]] std::string name() const override { return "drop-all"; }
};

TEST(PacketPortTest, AcksBypassThePolicy) {
  // A policy that drops every data packet must not touch ACKs.
  Simulator sim;
  Collector sink;
  PacketPort port{sim, Rate::mbps(10), 64, PacketLink{sim, Time::zero(), sink},
                  std::make_unique<DropAllDataPolicy>()};
  port.send(Packet::data(1, 0, 512));
  port.send(Packet::make_ack(1, 512));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].kind, PacketKind::kAck);
}

TEST(RouterTest, DataForwardAcksBackward) {
  RouterFixture f;
  f.router.receive_packet(Packet::data(1, 0, 512));
  f.router.receive_packet(Packet::make_ack(1, 512));
  f.sim.run();
  ASSERT_EQ(f.fwd.packets.size(), 1u);
  EXPECT_EQ(f.fwd.packets[0].kind, PacketKind::kData);
  ASSERT_EQ(f.bwd.packets.size(), 1u);
  EXPECT_EQ(f.bwd.packets[0].kind, PacketKind::kAck);
}

TEST(RouterTest, SourceQuenchRoutedBackward) {
  RouterFixture f;
  f.router.receive_packet(Packet::source_quench(1));
  f.sim.run();
  ASSERT_EQ(f.bwd.packets.size(), 1u);
  EXPECT_EQ(f.bwd.packets[0].kind, PacketKind::kSourceQuench);
}

TEST(RouterTest, PolicyQuenchRequestInjectedOntoBackwardPath) {
  Simulator sim;
  Collector fwd, bwd;
  Router router{sim, "r"};
  core::PhantomConfig cfg;
  cfg.initial_macr = Rate::kbps(1);  // everything over-rate
  auto policy = std::make_unique<SelectiveQuenchPolicy>(
      sim, Rate::mbps(10), 1.0, Time::ms(1), cfg);
  const auto fp = router.add_port(Rate::mbps(10), 64,
                                  PacketLink{sim, Time::zero(), fwd},
                                  std::move(policy));
  const auto bp = router.add_port(Rate::mbps(10), 64,
                                  PacketLink{sim, Time::zero(), bwd}, nullptr);
  router.route_flow(1, fp, bp);
  Packet data = Packet::data(1, 0, 512);
  data.cr = Rate::mbps(5);
  router.receive_packet(data);
  sim.run_until(Time::ms(5));  // the meter timer never drains; bound the run
  // The data packet was forwarded AND a quench went backward.
  EXPECT_EQ(fwd.packets.size(), 1u);
  ASSERT_EQ(bwd.packets.size(), 1u);
  EXPECT_EQ(bwd.packets[0].kind, PacketKind::kSourceQuench);
  EXPECT_EQ(bwd.packets[0].flow, 1);
  EXPECT_EQ(router.quenches_injected(), 1u);
}

TEST(RouterTest, UnroutedPacketsCounted) {
  RouterFixture f;
  f.router.receive_packet(Packet::data(99, 0, 512));
  EXPECT_EQ(f.router.unrouted_packets(), 1u);
}

TEST(RouterTest, DuplicateRouteRejected) {
  RouterFixture f;
  EXPECT_THROW(f.router.route_flow(1, f.fwd_port, f.bwd_port),
               std::invalid_argument);
}

TEST(RouterTest, NegativeFlowIdRejected) {
  RouterFixture f;
  EXPECT_THROW(f.router.route_flow(-1, f.fwd_port, f.bwd_port),
               std::invalid_argument);
  // Packet::flow defaults to -1: such a packet is unrouted, not routed.
  f.router.receive_packet(Packet{});
  EXPECT_EQ(f.router.unrouted_packets(), 1u);
}

TEST(RouterTest, BadPortIndexRejected) {
  RouterFixture f;
  EXPECT_THROW(f.router.route_flow(2, 9, 0), std::out_of_range);
}

}  // namespace
}  // namespace phantom::tcp
