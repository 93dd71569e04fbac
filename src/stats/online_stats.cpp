#include "snipr/stats/online_stats.hpp"

#include <algorithm>
#include <cmath>

namespace snipr::stats {

void OnlineStats::add(double sample) noexcept {
  if (n_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++n_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (sample - mean_);
}

double OnlineStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace snipr::stats
