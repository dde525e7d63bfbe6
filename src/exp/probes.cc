#include "exp/probes.h"

#include <utility>

#include "atm/cell.h"

namespace phantom::exp {

void GoodputProbe::mark() {
  t0_ = sim_->now();
  base_.clear();
  for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
    base_.push_back(net_->delivered_cells(s));
  }
}

std::vector<double> GoodputProbe::rates_mbps() const {
  std::vector<double> out;
  const double secs = (sim_->now() - t0_).seconds();
  for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
    const std::uint64_t base = s < base_.size() ? base_[s] : 0;
    const double cells = static_cast<double>(net_->delivered_cells(s) - base);
    out.push_back(secs > 0 ? cells * atm::kCellBits / secs / 1e6 : 0.0);
  }
  return out;
}

double GoodputProbe::total_mbps() const {
  double total = 0.0;
  for (const double r : rates_mbps()) total += r;
  return total;
}

Sampler::Sampler(sim::Simulator& sim, Getter value, sim::Time period)
    : sim_{&sim}, value_{std::move(value)}, period_{period} {
  sim_->schedule(sim::Time::zero(), [this] { tick(); });
}

void Sampler::tick() {
  samples_.push_back({sim_->now(), value_()});
  sim_->schedule(period_, [this] { tick(); });
}

Sampler::Getter queue_length_of(const atm::OutputPort& port) {
  return [&port] { return static_cast<double>(port.queue_length()); };
}

Sampler::Getter fair_share_of(const atm::PortController& controller) {
  return [&controller] { return controller.fair_share().bits_per_sec(); };
}

}  // namespace phantom::exp
