#include "tcp/packet_port.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace phantom::tcp {

PacketPort::PacketPort(sim::Simulator& sim, sim::Rate rate,
                       std::size_t queue_limit, PacketLink link,
                       std::unique_ptr<QueuePolicy> policy)
    : sim_{&sim},
      rate_{rate},
      queue_limit_{queue_limit},
      link_{std::move(link)},
      policy_{std::move(policy)} {
  assert(rate.bits_per_sec() > 0.0);
  assert(queue_limit_ > 0);
  if (!policy_) policy_ = std::make_unique<DropTailPolicy>();
}

void PacketPort::send(Packet packet) {
  if (packet.kind == PacketKind::kData) {
    const Verdict v =
        policy_->on_arrival(packet, queue_.size(), queue_limit_);
    if (v.send_quench && quench_tap_) quench_tap_(packet);
    if (v.drop) {
      ++dropped_;
      return;
    }
    if (v.mark_efci) packet.efci = true;
  }
  if (queue_.size() >= queue_limit_) {
    ++dropped_;
    policy_->on_overflow(packet);
    return;
  }
  queue_.push_back(packet);
  max_queue_ = std::max(max_queue_, queue_.size());
  if (!transmitting_) start_transmission();
}

void PacketPort::start_transmission() {
  assert(!queue_.empty());
  transmitting_ = true;
  const std::int64_t bits = queue_.front().wire_bits();
  if (bits != tx_bits_) {
    tx_lane_ = sim_->lane(rate_.transmission_time(bits));
    tx_bits_ = bits;
  }
  sim_->schedule(*tx_lane_,
                 sim::bind_member<&PacketPort::on_transmission_complete>(this));
}

void PacketPort::on_transmission_complete() {
  assert(!queue_.empty());
  ++transmitted_;
  link_.deliver(queue_.front());
  queue_.pop_front();
  if (!queue_.empty()) {
    start_transmission();
  } else {
    transmitting_ = false;
  }
}

}  // namespace phantom::tcp
