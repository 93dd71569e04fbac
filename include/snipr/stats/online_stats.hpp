#pragma once

#include <cstddef>

/// \file online_stats.hpp
/// Numerically stable single-pass mean/variance (Welford's algorithm).

namespace snipr::stats {

class OnlineStats {
 public:
  /// Serialisable internal state (checkpoint/restore of streaming runs).
  /// Restoring a snapshot and continuing is bit-identical to never
  /// having stopped.
  struct Snapshot {
    std::size_t n{0};
    double mean{0.0};
    double m2{0.0};
    double min{0.0};
    double max{0.0};
  };

  void add(double sample) noexcept;

  [[nodiscard]] Snapshot snapshot() const noexcept {
    return {n_, mean_, m2_, min_, max_};
  }
  void restore(const Snapshot& s) noexcept {
    n_ = s.n;
    mean_ = s.mean;
    m2_ = s.m2;
    min_ = s.min;
    max_ = s.max;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 with fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  void reset() noexcept { *this = OnlineStats{}; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

}  // namespace snipr::stats
