// Post-fault recovery metrics.
//
// The resilience experiments perturb a running network (outage, burst
// loss, controller restart) and ask how the control loop comes back.
// These helpers turn a recorded trace (MACR, ACR, queue length...) into
// the three numbers the resilience figures report: time-to-reconverge,
// the peak transient, and the settled mean.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sim/time.h"

namespace phantom::stats {

/// Earliest time >= `from` at which the trace enters the band
/// target * (1 ± rel_tol) and stays inside it for `hold` (and through
/// every later sample). Returned as latency relative to `from` — the
/// time-to-reconvergence metric. std::nullopt if the trace never
/// settles, settles only in the last `hold` (not yet proven stable), or
/// has no samples at/after `from`.
///
/// Samples are step-interpolated (a trace records value changes), so a
/// sample before `from` pins the value entering the window.
[[nodiscard]] std::optional<sim::Time> time_to_reconverge(
    std::span<const sim::Sample> samples, sim::Time from, double target,
    double rel_tol = 0.1, sim::Time hold = sim::Time::ms(5));

/// Largest sample value in [from, to] (step-interpolated at `from`).
/// 0.0 if the trace has no samples at or before `to`. The peak-transient
/// metric, e.g. the worst queue spike after an outage heals.
[[nodiscard]] double peak_in_window(std::span<const sim::Sample> samples,
                                    sim::Time from, sim::Time to);

/// Time-weighted mean over [from, to] under step interpolation. 0.0 for
/// an empty window or a trace with no sample at or before `to`. Used to
/// establish the pre-fault operating point a controller must return to.
[[nodiscard]] double mean_in_window(std::span<const sim::Sample> samples,
                                    sim::Time from, sim::Time to);

/// The three resilience numbers for one trace in one call — the shape
/// every recovery comparison (cold vs warm restart, decay on vs off)
/// tabulates per configuration.
struct RecoverySummary {
  /// time_to_reconverge(samples, from, target, ...): latency from the
  /// fault to provably-stable re-entry into the target band.
  std::optional<sim::Time> reconverge;
  /// peak_in_window(samples, from, last sample): worst transient after
  /// the fault.
  double peak = 0.0;
  /// mean_in_window over the trailing `settle_tail` of the trace: where
  /// the loop actually settled (compare against `target`).
  double settled_mean = 0.0;
};

/// Resamples a step-interpolated trace into `width`-wide buckets, each
/// carrying the bucket's time-weighted mean and stamped at the bucket's
/// end. Estimators that are noisy by *design* (APRC's congestion signal
/// flip-flops every growth interval) recover in the mean while their
/// instantaneous value never holds a reconvergence band — smooth first,
/// then ask time_to_reconverge. Empty input or non-positive width
/// yields an empty series.
[[nodiscard]] std::vector<sim::Sample> smooth_series(
    std::span<const sim::Sample> samples, sim::Time width);

/// Bundles the three metrics over the post-fault tail of a trace.
/// `from` is the fault (or recovery) instant; the settled mean is taken
/// over the final `settle_tail` of the recorded samples.
[[nodiscard]] RecoverySummary summarize_recovery(
    std::span<const sim::Sample> samples, sim::Time from, double target,
    double rel_tol = 0.1, sim::Time hold = sim::Time::ms(5),
    sim::Time settle_tail = sim::Time::ms(20));

}  // namespace phantom::stats
