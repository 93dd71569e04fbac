#include "snipr/stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace snipr::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, bin_width_{(hi - lo) / static_cast<double>(bins)} {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be >= 1");
  counts_.assign(bins, 0.0);
}

void Histogram::add(double sample, double weight) {
  total_ += weight;
  if (sample < lo_) {
    underflow_ += weight;
    return;
  }
  if (sample >= hi_) {
    overflow_ += weight;
    return;
  }
  const auto bin = static_cast<std::size_t>((sample - lo_) / bin_width_);
  counts_[std::min(bin, counts_.size() - 1)] += weight;
}

double Histogram::bin_lo(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + bin_width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_hi");
  return lo_ + bin_width_ * static_cast<double>(bin + 1);
}

std::string Histogram::render(std::size_t width) const {
  const double peak = counts_.empty()
                          ? 0.0
                          : *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar_len =
        peak > 0.0 ? static_cast<std::size_t>(std::lround(
                         counts_[i] / peak * static_cast<double>(width)))
                   : std::size_t{0};
    os << '[' << bin_lo(i) << ", " << bin_hi(i) << ") "
       << std::string(bar_len, '#') << ' ' << counts_[i] << '\n';
  }
  return os.str();
}

}  // namespace snipr::stats
