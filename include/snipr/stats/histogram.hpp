#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file histogram.hpp
/// Fixed-width binned histogram, used for per-slot contact statistics and
/// for rendering demand profiles (Fig. 3-style plots) as text.

namespace snipr::stats {

class Histogram {
 public:
  /// Bins of equal width spanning [lo, hi); samples outside are counted in
  /// underflow/overflow. Requires hi > lo and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  /// Count `sample` with `weight`. The range is half-open at every level:
  /// `lo` is inclusive, `hi` is overflow (add(hi) increments overflow(),
  /// add(nextafter(hi, lo)) lands in the last bin), and each bin covers
  /// [bin_lo, bin_hi). Samples a rounding error below hi can make
  /// `(sample - lo) / bin_width` quotient to the bin count; the index is
  /// clamped to the last bin so the [lo, hi) promise survives floating
  /// point.
  void add(double sample, double weight = 1.0);

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;
  [[nodiscard]] double underflow() const noexcept { return underflow_; }
  [[nodiscard]] double overflow() const noexcept { return overflow_; }
  [[nodiscard]] double total() const noexcept { return total_; }
  /// Simple fixed-width ASCII rendering, one row per bin.
  [[nodiscard]] std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<double> counts_;
  double underflow_{0.0};
  double overflow_{0.0};
  double total_{0.0};
};

}  // namespace snipr::stats
