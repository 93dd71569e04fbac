#include "snipr/stats/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace snipr::stats {

QuantileSketch::QuantileSketch(double relative_error)
    : relative_error_{relative_error},
      gamma_{(1.0 + relative_error) / (1.0 - relative_error)},
      inv_log_gamma_{1.0 / std::log(gamma_)} {
  if (!(relative_error > 0.0) || !(relative_error < 1.0)) {
    throw std::invalid_argument(
        "QuantileSketch: relative_error must be in (0, 1)");
  }
}

QuantileSketch::QuantileSketch(const Snapshot& snapshot)
    : QuantileSketch{snapshot.relative_error} {
  zero_count_ = snapshot.zero_count;
  base_ = snapshot.base;
  counts_ = snapshot.counts;
  total_ = zero_count_;
  for (const std::uint64_t c : counts_) total_ += c;
}

std::int32_t QuantileSketch::bucket_index(double value) const {
  return static_cast<std::int32_t>(
      std::ceil(std::log(value) * inv_log_gamma_));
}

double QuantileSketch::bucket_value(std::int32_t index) const {
  // Midpoint of (γ^(i−1), γ^i] in relative terms: 2γ^i/(γ+1), within
  // relative_error of every sample the bucket absorbed.
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QuantileSketch::add(double value) {
  ++total_;
  if (!(value > 0.0)) {  // non-positive and NaN both land here
    ++zero_count_;
    return;
  }
  const std::int32_t index = bucket_index(value);
  if (counts_.empty()) {
    base_ = index;
    counts_.push_back(1);
    return;
  }
  if (index < base_) {
    counts_.insert(counts_.begin(),
                   static_cast<std::size_t>(base_ - index), 0);
    base_ = index;
  } else if (index >= base_ + static_cast<std::int32_t>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(index - base_) + 1, 0);
  }
  ++counts_[static_cast<std::size_t>(index - base_)];
}

double QuantileSketch::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank on the flattened (zero bucket, then ascending buckets)
  // population; rank r is the index of the sample reported.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  if (rank < zero_count_) return 0.0;
  std::uint64_t seen = zero_count_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (rank < seen) {
      return bucket_value(base_ + static_cast<std::int32_t>(i));
    }
  }
  // Unreachable when counts are consistent with total_.
  return bucket_value(base_ + static_cast<std::int32_t>(counts_.size()) - 1);
}

QuantileSketch::Snapshot QuantileSketch::snapshot() const {
  Snapshot s;
  s.relative_error = relative_error_;
  s.base = base_;
  s.zero_count = zero_count_;
  s.counts = counts_;
  return s;
}

}  // namespace snipr::stats
