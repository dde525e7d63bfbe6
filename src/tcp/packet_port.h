// Router/host output port for packets: bounded FIFO + transmitter +
// queue policy, mirroring atm::OutputPort at packet granularity.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "sim/ring.h"
#include "sim/simulator.h"
#include "tcp/packet.h"
#include "tcp/queue_policy.h"

namespace phantom::tcp {

/// Loss model, loss counter and the packets on the wire of one packet
/// link hop, shared by every copy of the PacketLink.
class PacketLinkState {
  friend class PacketLink;

  /// The delivery event: the head of the delay line has propagated.
  void arrive() {
    const Packet packet = line_.front();
    line_.pop_front();
    sink_->receive_packet(packet);
  }

  PacketSink* sink_ = nullptr;
  double loss_ = 0.0;
  std::uint64_t lost_ = 0;
  /// Packets on the wire, oldest first. The delay is constant, so they
  /// leave in the order they entered and each delivery takes the head.
  sim::Ring<Packet> line_;
};

/// Pure-latency pipe, the packet twin of atm::Link. Optional random
/// loss for failure-injection tests, drawn when a packet is offered.
///
/// A constant delay makes the link a FIFO delay line: packets on the
/// wire wait in a ring inside the shared PacketLinkState, and each one
/// schedules a one-pointer delivery event on the simulator's lane for
/// the delay (DESIGN.md §11). Links are value types; all copies share
/// the state, and the simulator retains it too, so packets in flight
/// are delivered even if every copy of the link is gone.
class PacketLink {
 public:
  PacketLink(sim::Simulator& sim, sim::Time delay, PacketSink& sink,
             double loss_probability = 0.0)
      : sim_{&sim},
        lane_{sim.lane(delay)},
        state_{std::make_shared<PacketLinkState>()} {
    assert(loss_probability >= 0.0 && loss_probability <= 1.0);
    state_->sink_ = &sink;
    state_->loss_ = loss_probability;
    sim.retain(state_);
  }

  void deliver(const Packet& packet) {
    PacketLinkState& st = *state_;
    if (st.loss_ > 0.0 && sim_->rng().bernoulli(st.loss_)) {
      ++st.lost_;
      return;
    }
    st.line_.push_back(packet);
    sim_->schedule(lane_, sim::bind_member<&PacketLinkState::arrive>(&st));
  }

  [[nodiscard]] sim::Time delay() const { return lane_.delay(); }
  /// Packets lost on this hop, through any copy of the link: copies
  /// share one counter, so every holder reads the hop's total.
  [[nodiscard]] std::uint64_t packets_lost() const { return state_->lost_; }

 private:
  sim::Simulator* sim_;
  sim::Lane lane_;
  std::shared_ptr<PacketLinkState> state_;
};

/// Output-queued packet port. The queue policy adjudicates every
/// arriving *data* packet (ACK and Source Quench packets bypass it: the
/// paper's mechanisms act on the data direction). `quench_tap`, when
/// set, is invoked for packets whose verdict requests a Source Quench —
/// the owning router wires it to the flow's reverse path.
class PacketPort {
 public:
  PacketPort(sim::Simulator& sim, sim::Rate rate, std::size_t queue_limit,
             PacketLink link, std::unique_ptr<QueuePolicy> policy);

  PacketPort(const PacketPort&) = delete;
  PacketPort& operator=(const PacketPort&) = delete;

  void send(Packet packet);

  void set_quench_tap(std::function<void(const Packet&)> tap) {
    quench_tap_ = std::move(tap);
  }

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::size_t max_queue_length() const { return max_queue_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t packets_transmitted() const {
    return transmitted_;
  }
  [[nodiscard]] sim::Rate rate() const { return rate_; }

  /// Never null; DropTailPolicy when none was supplied.
  [[nodiscard]] QueuePolicy& policy() { return *policy_; }
  [[nodiscard]] const QueuePolicy& policy() const { return *policy_; }

 private:
  void start_transmission();
  void on_transmission_complete();

  sim::Simulator* sim_;
  sim::Rate rate_;
  // The lane for the last transmission's packet size: a port carrying
  // data and ACKs alternates between two lanes, looked up on a change.
  std::int64_t tx_bits_ = -1;
  std::optional<sim::Lane> tx_lane_;
  std::size_t queue_limit_;
  PacketLink link_;
  std::unique_ptr<QueuePolicy> policy_;
  std::function<void(const Packet&)> quench_tap_;

  sim::Ring<Packet> queue_;
  bool transmitting_ = false;
  std::size_t max_queue_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t transmitted_ = 0;
};

}  // namespace phantom::tcp
