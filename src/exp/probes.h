// Measurement probes shared by tests, examples and the bench harness.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "atm/output_port.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace phantom::exp {

/// Per-session goodput over a marked window, from delivered-cell deltas
/// at the destinations. This is how the paper's per-session throughput
/// numbers are measured (rates of *useful* data cells, not ACR).
class GoodputProbe {
 public:
  /// Opens the first window at the current time.
  GoodputProbe(sim::Simulator& sim, topo::AbrNetwork& net)
      : sim_{&sim}, net_{&net} {
    mark();
  }

  /// Starts (or restarts) the measurement window at the current time.
  void mark();

  /// Per-session goodput in Mb/s since the last mark(). A session added
  /// after it counts every cell it delivered.
  [[nodiscard]] std::vector<double> rates_mbps() const;

  /// Aggregate goodput in Mb/s since the last mark().
  [[nodiscard]] double total_mbps() const;

 private:
  sim::Simulator* sim_;
  topo::AbrNetwork* net_;
  sim::Time t0_;
  std::vector<std::uint64_t> base_;
};

/// Samples a value on a fixed period: the first sample at construction
/// time, then one per period. Queue length and fair share over time are
/// the paper's "Queue length" and MACR curves (see queue_length_of() and
/// fair_share_of()).
class Sampler {
 public:
  using Getter = std::function<double()>;

  Sampler(sim::Simulator& sim, Getter value,
          sim::Time period = sim::Time::us(500));

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  [[nodiscard]] const std::vector<sim::Sample>& samples() const {
    return samples_;
  }

 private:
  void tick();

  sim::Simulator* sim_;
  Getter value_;
  sim::Time period_;
  std::vector<sim::Sample> samples_;
};

/// A port's queue length in cells. The getters below read their
/// argument by reference, so it must outlive the Sampler.
[[nodiscard]] Sampler::Getter queue_length_of(const atm::OutputPort& port);

/// A controller's fair-share estimate (MACR / ERS) in b/s.
[[nodiscard]] Sampler::Getter fair_share_of(
    const atm::PortController& controller);

}  // namespace phantom::exp
