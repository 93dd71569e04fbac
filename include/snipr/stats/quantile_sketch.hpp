#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file quantile_sketch.hpp
/// Fixed-relative-error quantile sketch (DDSketch-style).
///
/// Values are filed into geometrically spaced buckets: bucket i covers
/// (γ^(i−1), γ^i] with γ = (1+ε)/(1−ε), so any reported quantile is
/// within relative error ε of a true sample. Non-positive values (ζ can
/// legitimately be exactly zero for a starved node) collapse into a
/// dedicated zero bucket reported as 0.0.
///
/// The state is nothing but integer counts, so a snapshot restores it
/// exactly (the streaming fleet's checkpoints). Memory is O(log(max/min)/ε):
/// ~2.3k buckets cover 12 decades at ε = 1%, independent of how many
/// samples stream through.
namespace snipr::stats {

class QuantileSketch {
 public:
  /// Serialisable state (checkpoint/restore of a streaming run).
  struct Snapshot {
    double relative_error{0.0};
    std::int32_t base{0};  ///< bucket index of counts[0]
    std::uint64_t zero_count{0};
    std::vector<std::uint64_t> counts;
  };

  explicit QuantileSketch(double relative_error = 0.01);
  explicit QuantileSketch(const Snapshot& snapshot);

  void add(double value);

  /// Value at quantile `q` in [0, 1] (0 = min bucket, 1 = max bucket),
  /// within the configured relative error. Returns 0.0 on an empty
  /// sketch.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] double relative_error() const noexcept {
    return relative_error_;
  }

  [[nodiscard]] Snapshot snapshot() const;

 private:
  [[nodiscard]] std::int32_t bucket_index(double value) const;
  /// Representative value of a bucket (midpoint in relative terms).
  [[nodiscard]] double bucket_value(std::int32_t index) const;

  double relative_error_;
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t zero_count_{0};
  std::uint64_t total_{0};
  /// counts_[i] is the population of bucket (base_ + i); the window
  /// grows (amortised, re-based) as values outside it arrive.
  std::int32_t base_{0};
  std::vector<std::uint64_t> counts_;
};

}  // namespace snipr::stats
