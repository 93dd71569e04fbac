#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <ostream>

/// \file time.hpp
/// Strongly typed simulation time.
///
/// The simulator keeps time as signed 64-bit microsecond counts. Integer
/// ticks make event ordering exact and runs bit-reproducible; doubles are
/// only produced at the API edge (`to_seconds`) for reporting.

namespace snipr::sim {

/// A signed span of simulated time with microsecond resolution.
class Duration {
 public:
  constexpr Duration() noexcept = default;

  /// Named constructors. Fractional inputs round to the nearest microsecond.
  [[nodiscard]] static constexpr Duration microseconds(
      std::int64_t us) noexcept {
    return Duration{us};
  }
  [[nodiscard]] static constexpr Duration milliseconds(
      std::int64_t ms) noexcept {
    return Duration{ms * 1000};
  }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) noexcept {
    return Duration{s * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration seconds(int s) noexcept {
    return seconds(static_cast<std::int64_t>(s));
  }
  [[nodiscard]] static Duration seconds(double s) noexcept {
    return Duration{round_half_away(s * 1e6)};
  }
  [[nodiscard]] static constexpr Duration minutes(std::int64_t m) noexcept {
    return Duration{m * 60 * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration hours(std::int64_t h) noexcept {
    return Duration{h * 3600 * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration zero() noexcept {
    return Duration{0};
  }
  [[nodiscard]] static constexpr Duration max() noexcept {
    return Duration{INT64_MAX};
  }

  /// Raw microsecond count.
  [[nodiscard]] constexpr std::int64_t count() const noexcept { return us_; }
  /// Lossy conversion for reporting.
  [[nodiscard]] constexpr double to_seconds() const noexcept {
    return static_cast<double>(us_) / 1e6;
  }

  [[nodiscard]] constexpr bool is_zero() const noexcept { return us_ == 0; }

  constexpr auto operator<=>(const Duration&) const noexcept = default;

  constexpr Duration& operator+=(Duration rhs) noexcept {
    us_ += rhs.us_;
    return *this;
  }
  constexpr Duration& operator-=(Duration rhs) noexcept {
    us_ -= rhs.us_;
    return *this;
  }

  [[nodiscard]] friend constexpr Duration operator+(Duration a,
                                                    Duration b) noexcept {
    return Duration{a.us_ + b.us_};
  }
  [[nodiscard]] friend constexpr Duration operator-(Duration a,
                                                    Duration b) noexcept {
    return Duration{a.us_ - b.us_};
  }
  [[nodiscard]] friend constexpr Duration operator-(Duration a) noexcept {
    return Duration{-a.us_};
  }
  [[nodiscard]] friend Duration operator*(Duration a, double k) noexcept {
    return Duration{round_half_away(static_cast<double>(a.us_) * k)};
  }
  [[nodiscard]] friend Duration operator*(double k, Duration a) noexcept {
    return a * k;
  }
  [[nodiscard]] friend constexpr Duration operator*(Duration a,
                                                    std::int64_t k) noexcept {
    return Duration{a.us_ * k};
  }
  [[nodiscard]] friend constexpr Duration operator*(Duration a,
                                                    int k) noexcept {
    return a * static_cast<std::int64_t>(k);
  }
  [[nodiscard]] friend constexpr Duration operator/(Duration a,
                                                    std::int64_t k) noexcept {
    return Duration{a.us_ / k};
  }
  /// Ratio of two spans (e.g. duty-cycle = on / cycle).
  [[nodiscard]] friend constexpr double operator/(Duration a,
                                                  Duration b) noexcept {
    return static_cast<double>(a.us_) / static_cast<double>(b.us_);
  }

  friend std::ostream& operator<<(std::ostream& os, Duration d) {
    return os << d.to_seconds() << "s";
  }

 private:
  constexpr explicit Duration(std::int64_t us) noexcept : us_{us} {}

  /// std::llround(y) without the library call: truncate, then round the
  /// fraction half away from zero. Below 2^62 in magnitude the truncated
  /// value and the fraction are both exact doubles; larger values, ±inf
  /// and NaN go to std::llround itself. The two comparisons are added,
  /// not branched on: which way a fraction rounds is a coin toss, and
  /// mispredicted branches cost more than the library call.
  [[nodiscard]] static std::int64_t round_half_away(double y) noexcept {
    if (!(std::fabs(y) < 0x1p62)) return std::llround(y);
    const auto whole = static_cast<std::int64_t>(y);
    const double fraction = y - static_cast<double>(whole);
    return whole + static_cast<std::int64_t>(fraction >= 0.5) -
           static_cast<std::int64_t>(fraction <= -0.5);
  }

  std::int64_t us_{0};
};

/// An absolute instant on the simulation clock (microseconds since start).
class TimePoint {
 public:
  constexpr TimePoint() noexcept = default;

  [[nodiscard]] static constexpr TimePoint zero() noexcept {
    return TimePoint{};
  }
  [[nodiscard]] static constexpr TimePoint max() noexcept {
    return TimePoint{Duration::max()};
  }
  [[nodiscard]] static constexpr TimePoint at(Duration since_start) noexcept {
    return TimePoint{since_start};
  }

  [[nodiscard]] constexpr std::int64_t count() const noexcept {
    return d_.count();
  }
  [[nodiscard]] constexpr double to_seconds() const noexcept {
    return d_.to_seconds();
  }

  constexpr auto operator<=>(const TimePoint&) const noexcept = default;

  constexpr TimePoint& operator+=(Duration d) noexcept {
    d_ += d;
    return *this;
  }
  constexpr TimePoint& operator-=(Duration d) noexcept {
    d_ -= d;
    return *this;
  }

  [[nodiscard]] friend constexpr TimePoint operator+(TimePoint t,
                                                     Duration d) noexcept {
    return TimePoint{t.d_ + d};
  }
  [[nodiscard]] friend constexpr TimePoint operator+(Duration d,
                                                     TimePoint t) noexcept {
    return t + d;
  }
  [[nodiscard]] friend constexpr TimePoint operator-(TimePoint t,
                                                     Duration d) noexcept {
    return TimePoint{t.d_ - d};
  }
  [[nodiscard]] friend constexpr Duration operator-(TimePoint a,
                                                    TimePoint b) noexcept {
    return a.d_ - b.d_;
  }

  friend std::ostream& operator<<(std::ostream& os, TimePoint t) {
    return os << "t=" << t.to_seconds() << "s";
  }

 private:
  constexpr explicit TimePoint(Duration d) noexcept : d_{d} {}
  Duration d_{};
};

}  // namespace snipr::sim
