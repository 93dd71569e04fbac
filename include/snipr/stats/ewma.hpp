#pragma once

#include <stdexcept>

/// \file ewma.hpp
/// Exponentially weighted moving average.
///
/// SNIP-RH (Sec. VI-B/C of the paper) smooths two noisy online signals with
/// an EWMA that assigns "a small weight to the new sample": the mean contact
/// length T̄contact (which sets the duty-cycle) and the mean amount of data
/// uploaded per probed contact (which gates probing on buffer occupancy).

namespace snipr::stats {

class Ewma {
 public:
  /// \param weight  weight of the new sample, in (0, 1]. The paper uses a
  ///                small weight; our default follows that guidance.
  /// \param initial optional prior estimate seeded before any samples.
  explicit Ewma(double weight = 0.1);
  Ewma(double weight, double initial);

  /// Fold in one observation. The first observation initialises the mean
  /// unless a prior was supplied.
  void add(double sample) noexcept;

  /// Estimate, or `fallback` before any data.
  [[nodiscard]] double value_or(double fallback) const noexcept;

  [[nodiscard]] bool has_value() const noexcept { return initialised_; }
  [[nodiscard]] double weight() const noexcept { return weight_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Raw mean regardless of initialisation (0.0 before any data) — the
  /// checkpoint-side counterpart of restore().
  [[nodiscard]] double mean_raw() const noexcept { return mean_; }
  /// Bit-exact restore of state captured via mean_raw() / has_value() /
  /// count() (the crash-recovery checkpoint path).
  void restore(double mean, bool initialised, std::size_t count) noexcept {
    mean_ = mean;
    initialised_ = initialised;
    count_ = count;
  }

 private:
  double weight_;
  double mean_{0.0};
  bool initialised_{false};
  std::size_t count_{0};
};

}  // namespace snipr::stats
