// Analysis of recorded time series: the numbers behind every figure.
#pragma once

#include <span>

#include "sim/time.h"

namespace phantom::stats {

/// Five-number-ish summary of a set of samples.
struct Summary {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;
};

/// Summary over samples with time in [t0, t1].
[[nodiscard]] Summary summarize(std::span<const sim::Sample> samples,
                                sim::Time t0, sim::Time t1);

/// Summary over the whole series.
[[nodiscard]] Summary summarize(std::span<const sim::Sample> samples);

/// Value of the (step-interpolated) series at time t: the last sample at
/// or before t, or `fallback` if there is none.
[[nodiscard]] double value_at(std::span<const sim::Sample> samples,
                              sim::Time t, double fallback = 0.0);

/// Time-weighted average of the step-interpolated series over [t0, t1].
/// Series treated as holding each sample's value until the next sample.
[[nodiscard]] double time_average(std::span<const sim::Sample> samples,
                                  sim::Time t0, sim::Time t1);

/// First time after which the series stays within `tolerance_frac` of
/// `target` until its end (and for at least `min_hold`). Returns
/// Time::max() if it never settles. This is how EXPERIMENTS.md reports
/// "convergence time".
[[nodiscard]] sim::Time convergence_time(std::span<const sim::Sample> samples,
                                         double target, double tolerance_frac,
                                         sim::Time min_hold = sim::Time::zero());

}  // namespace phantom::stats
