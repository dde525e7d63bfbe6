// Simulation time, data-rate and time-series sample value types.
//
// Time is an integer count of nanoseconds. Integer time keeps event
// ordering exact and simulations bit-for-bit reproducible; nanosecond
// resolution is ~350x finer than one ATM cell time on a 150 Mb/s link,
// so quantization error is negligible for every model in this library.
#pragma once

#include <cassert>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace phantom::sim {

/// A point in (or span of) simulation time, in integer nanoseconds.
///
/// The same type serves as instant and duration (like ns-3's Time);
/// arithmetic is closed and exact. Construct via the named factories:
///
///     Time t = Time::ms(3) + Time::us(250);
///     double s = t.seconds();   // 0.00325
class Time {
 public:
  constexpr Time() = default;

  [[nodiscard]] static constexpr Time ns(std::int64_t v) { return Time{v}; }
  [[nodiscard]] static constexpr Time us(std::int64_t v) { return Time{v * 1'000}; }
  [[nodiscard]] static constexpr Time ms(std::int64_t v) { return Time{v * 1'000'000}; }
  [[nodiscard]] static constexpr Time sec(std::int64_t v) { return Time{v * 1'000'000'000}; }

  /// Converts a floating-point second count, rounding to the nearest ns.
  /// Undefined for NaN, infinities and counts beyond Time's range:
  /// callers holding outside input check fits_seconds(s) first.
  [[nodiscard]] static constexpr Time from_seconds(double s) {
    return Time{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }

  /// Whether a parsed second count is safe to turn into a Time: finite,
  /// and at most half of Time::max() in magnitude, so an event's start
  /// plus its duration cannot overflow either. Parsers check this before
  /// from_seconds, whose float-to-integer cast is undefined out of range.
  [[nodiscard]] static bool fits_seconds(double s) {
    return std::isfinite(s) &&
           std::fabs(s) <= static_cast<double>(
                               std::numeric_limits<std::int64_t>::max()) /
                               2e9;
  }

  [[nodiscard]] static constexpr Time zero() { return Time{0}; }
  [[nodiscard]] static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t nanoseconds() const { return ns_; }
  [[nodiscard]] constexpr double microseconds() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double milliseconds() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ns_ + b.ns_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ns_ - b.ns_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(Time a, int k) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(int k, Time a) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(Time a, double k) {
    return from_seconds(a.seconds() * k);
  }
  friend constexpr Time operator/(Time a, std::int64_t k) { return Time{a.ns_ / k}; }
  /// Ratio of two spans, e.g. elapsed / interval.
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  constexpr Time& operator+=(Time o) { ns_ += o.ns_; return *this; }
  constexpr Time& operator-=(Time o) { ns_ -= o.ns_; return *this; }

  friend constexpr auto operator<=>(Time, Time) = default;

  /// Human-readable rendering with an auto-selected unit ("3.25ms").
  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Time(std::int64_t v) : ns_{v} {}
  std::int64_t ns_ = 0;
};

/// A data rate in bits per second.
///
/// Stored as a double: rates are measured/filtered quantities, never used
/// for event ordering, so floating point is appropriate. Conversions to
/// and from ATM cells (424 bits = 53 bytes on the wire) are provided
/// because the paper quotes most rates in cells/s or Mb/s.
class Rate {
 public:
  static constexpr double kBitsPerCell = 424.0;  // 53-byte ATM cell

  constexpr Rate() = default;

  [[nodiscard]] static constexpr Rate bps(double v) { return Rate{v}; }
  [[nodiscard]] static constexpr Rate kbps(double v) { return Rate{v * 1e3}; }
  [[nodiscard]] static constexpr Rate mbps(double v) { return Rate{v * 1e6}; }
  [[nodiscard]] static constexpr Rate cells_per_sec(double v) {
    return Rate{v * kBitsPerCell};
  }
  [[nodiscard]] static constexpr Rate zero() { return Rate{0}; }

  [[nodiscard]] constexpr double bits_per_sec() const { return bps_; }
  [[nodiscard]] constexpr double mbits_per_sec() const { return bps_ / 1e6; }
  [[nodiscard]] constexpr double cells_per_second() const { return bps_ / kBitsPerCell; }
  [[nodiscard]] constexpr double bytes_per_sec() const { return bps_ / 8.0; }

  [[nodiscard]] constexpr bool is_zero() const { return bps_ == 0.0; }

  /// Time to serialize `bits` at this rate. Requires a positive rate.
  [[nodiscard]] Time transmission_time(std::int64_t bits) const {
    assert(bps_ > 0.0);
    return Time::from_seconds(static_cast<double>(bits) / bps_);
  }

  friend constexpr Rate operator+(Rate a, Rate b) { return Rate{a.bps_ + b.bps_}; }
  friend constexpr Rate operator-(Rate a, Rate b) { return Rate{a.bps_ - b.bps_}; }
  friend constexpr Rate operator*(Rate a, double k) { return Rate{a.bps_ * k}; }
  friend constexpr Rate operator*(double k, Rate a) { return Rate{a.bps_ * k}; }
  friend constexpr Rate operator/(Rate a, double k) { return Rate{a.bps_ / k}; }
  friend constexpr double operator/(Rate a, Rate b) { return a.bps_ / b.bps_; }
  constexpr Rate& operator+=(Rate o) { bps_ += o.bps_; return *this; }
  constexpr Rate& operator-=(Rate o) { bps_ -= o.bps_; return *this; }

  friend constexpr auto operator<=>(Rate, Rate) = default;

  /// Bits transferred in `span` at this rate.
  [[nodiscard]] constexpr double bits_in(Time span) const { return bps_ * span.seconds(); }

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Rate(double v) : bps_{v} {}
  double bps_ = 0.0;
};

/// One observation of a time series (MACR over time, queue length over
/// time, ...); series are plain std::vector<Sample> in time order.
struct Sample {
  Time time;
  double value = 0.0;
  friend bool operator==(const Sample&, const Sample&) = default;
};

}  // namespace phantom::sim
