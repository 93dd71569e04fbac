#include "snipr/stats/ewma.hpp"

namespace snipr::stats {

Ewma::Ewma(double weight) : weight_{weight} {
  if (!(weight > 0.0) || weight > 1.0) {
    throw std::invalid_argument("Ewma: weight must be in (0, 1]");
  }
}

Ewma::Ewma(double weight, double initial) : Ewma{weight} {
  mean_ = initial;
  initialised_ = true;
}

void Ewma::add(double sample) noexcept {
  if (!initialised_) {
    mean_ = sample;
    initialised_ = true;
  } else {
    mean_ += weight_ * (sample - mean_);
  }
  ++count_;
}

double Ewma::value_or(double fallback) const noexcept {
  return initialised_ ? mean_ : fallback;
}

}  // namespace snipr::stats
