// tcp::PacketLink as a delay line: packets on the wire wait in a ring
// inside the shared PacketLinkState and leave it, oldest first, on lane
// events.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "tcp/packet.h"
#include "tcp/packet_port.h"

namespace phantom::tcp {
namespace {

using sim::Simulator;
using sim::Time;

struct Stamped final : PacketSink {
  explicit Stamped(const Simulator& s) : sim{&s} {}
  void receive_packet(Packet packet) override {
    packets.push_back(packet);
    at.push_back(sim->now());
  }
  const Simulator* sim;
  std::vector<Packet> packets;
  std::vector<Time> at;
};

void expect_fifo_after(Time delay) {
  Simulator sim;
  Stamped sink{sim};
  PacketLink link{sim, delay, sink};
  EXPECT_EQ(link.delay(), delay);
  // Two packets per instant, so equal-time deliveries must keep order.
  for (int i = 0; i < 6; ++i) {
    sim.schedule(Time::us(i / 2),
                 [&link, i] { link.deliver(Packet::data(i, 512 * i, 512)); });
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sink.packets[i].flow, static_cast<int>(i));
    EXPECT_EQ(sink.packets[i].seq, 512 * static_cast<std::int64_t>(i));
    EXPECT_EQ(sink.at[i], Time::us(static_cast<std::int64_t>(i / 2)) + delay);
  }
}

TEST(PacketLinkTest, PacketsLeaveInOrderAfterTheDelay) {
  expect_fifo_after(Time::ms(3));
}

TEST(PacketLinkTest, ZeroDelayKeepsOrderAtTheSameInstant) {
  expect_fifo_after(Time::zero());
}

TEST(PacketLinkTest, LossCountersAreSharedAcrossCopies) {
  Simulator sim{5};
  Stamped sink{sim};
  PacketLink link{sim, Time::us(1), sink, 0.5};
  PacketLink copy = link;
  for (int i = 0; i < 200; ++i) {
    (i % 2 == 0 ? link : copy).deliver(Packet::data(1, 512 * i, 512));
  }
  sim.run();
  EXPECT_GT(link.packets_lost(), 0u);
  EXPECT_EQ(link.packets_lost(), copy.packets_lost());
  EXPECT_EQ(link.packets_lost() + sink.packets.size(), 200u);
}

TEST(PacketLinkTest, DestroyingTheLinkStillDeliversInFlightPackets) {
  // The simulator retains the link state, so the delivery events never
  // reach a dead ring.
  Simulator sim;
  Stamped sink{sim};
  {
    PacketLink link{sim, Time::us(5), sink};
    link.deliver(Packet::data(7, 0, 512));
    link.deliver(Packet::make_ack(8, 512));
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0].flow, 7);
  EXPECT_EQ(sink.packets[1].kind, PacketKind::kAck);
  EXPECT_EQ(sink.at[1], Time::us(5));
}

TEST(PacketLinkTest, DestroyingSimulatorWithPacketsInFlightIsClean) {
  // Both destruction orders, with packets still on the wire: the
  // sanitizer builds catch a leak or a touch of freed memory here.
  Simulator observer;
  Stamped sink{observer};
  {
    auto sim = std::make_unique<Simulator>();
    PacketLink link{*sim, Time::ms(1), sink};
    for (int i = 0; i < 100; ++i) link.deliver(Packet::data(1, 512 * i, 512));
    sim->run_until(Time::us(10));
    sim.reset();  // the link outlives its simulator, unused
  }
  {
    auto sim = std::make_unique<Simulator>();
    auto link = std::make_unique<PacketLink>(*sim, Time::ms(1), sink);
    for (int i = 0; i < 100; ++i) link->deliver(Packet::data(1, 512 * i, 512));
    link.reset();
    sim.reset();
  }
  EXPECT_TRUE(sink.packets.empty());
}

}  // namespace
}  // namespace phantom::tcp
