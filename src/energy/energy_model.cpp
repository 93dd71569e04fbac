#include "snipr/energy/energy_model.hpp"

namespace snipr::energy {

void EnergyMeter::accumulate(RadioState s, sim::Duration span) noexcept {
  accumulated_[static_cast<std::size_t>(s)] += span;
}

double EnergyMeter::energy_j() const noexcept {
  const EnergyModel model{};
  double total = 0.0;
  for (std::size_t s = 0; s < kRadioStateCount; ++s) {
    total += model.energy_j(static_cast<RadioState>(s), accumulated_[s]);
  }
  return total;
}

}  // namespace snipr::energy
