#include "snipr/energy/battery.hpp"

#include <limits>
#include <stdexcept>

namespace snipr::energy {

Battery::Battery(double capacity_j) : capacity_j_{capacity_j} {
  if (!(capacity_j > 0.0)) {
    throw std::invalid_argument("Battery: capacity must be > 0");
  }
}

Battery Battery::two_aa() {
  // mAh / 1000 * 3600 s * voltage * usable fraction.
  return Battery{2600.0 / 1000.0 * 3600.0 * 3.0 * 0.7};
}

double Battery::lifetime_years(double joules_per_epoch,
                               sim::Duration epoch) const {
  if (!(epoch > sim::Duration::zero())) {
    throw std::invalid_argument("Battery: epoch must be positive");
  }
  if (joules_per_epoch < 0.0) {
    throw std::invalid_argument("Battery: negative per-epoch draw");
  }
  const double epochs = joules_per_epoch == 0.0
                            ? std::numeric_limits<double>::infinity()
                            : capacity_j_ / joules_per_epoch;
  return epochs * epoch.to_seconds() / (365.25 * 86400.0);
}

}  // namespace snipr::energy
