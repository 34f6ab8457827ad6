// Simulation time: a strong integral type with nanosecond resolution.
//
// FlexRay timing is defined in macroticks (1 us in the paper's
// configuration) and minislots (multiples of macroticks); nanosecond
// resolution leaves ample headroom for sub-macrotick bookkeeping while
// keeping arithmetic exact (no floating point drift over long runs).
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace coeff::sim {

/// A point or span on the simulation clock, in integer nanoseconds.
///
/// Time is a value type: copyable, totally ordered, and closed under
/// addition/subtraction and integer scaling. Use the `nanos`/`micros`/
/// `millis`/`seconds` factories rather than the raw constructor.
class Time {
 public:
  constexpr Time() = default;
  constexpr explicit Time(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double as_us() const {
    return static_cast<double>(ns_) / 1e3;
  }
  [[nodiscard]] constexpr double as_ms() const {
    return static_cast<double>(ns_) / 1e6;
  }
  [[nodiscard]] constexpr double as_seconds() const {
    return static_cast<double>(ns_) / 1e9;
  }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time& operator+=(Time rhs) {
    ns_ += rhs.ns_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) {
    ns_ -= rhs.ns_;
    return *this;
  }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ns_ + b.ns_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ns_ - b.ns_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) {
    return Time{a.ns_ * k};
  }
  friend constexpr Time operator*(std::int64_t k, Time a) { return a * k; }
  /// Truncating integral division: how many whole `b` spans fit in `a`.
  friend constexpr std::int64_t operator/(Time a, Time b) {
    return a.ns_ / b.ns_;
  }
  /// Remainder of `a` modulo the span `b`.
  friend constexpr Time operator%(Time a, Time b) { return Time{a.ns_ % b.ns_}; }

  [[nodiscard]] static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }
  [[nodiscard]] static constexpr Time zero() { return Time{0}; }

 private:
  std::int64_t ns_ = 0;
};

[[nodiscard]] constexpr Time nanos(std::int64_t n) { return Time{n}; }
[[nodiscard]] constexpr Time micros(std::int64_t n) { return Time{n * 1'000}; }
[[nodiscard]] constexpr Time millis(std::int64_t n) {
  return Time{n * 1'000'000};
}
[[nodiscard]] constexpr Time seconds(std::int64_t n) {
  return Time{n * 1'000'000'000};
}

/// Human-readable rendering with an adaptive unit, e.g. "4.7ms".
[[nodiscard]] std::string to_string(Time t);

/// std::lcm of two positive counts (cycles or nanoseconds), saturating
/// at INT64_MAX where the true value would overflow (16 distinct prime
/// periods suffice). 0 when either is not positive: no such set has a
/// hyperperiod, and validation reports it.
[[nodiscard]] std::int64_t lcm_saturating(std::int64_t a, std::int64_t b);

}  // namespace coeff::sim
