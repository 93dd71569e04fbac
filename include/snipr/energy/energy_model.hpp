#pragma once

#include <array>
#include <cstddef>

#include "snipr/sim/time.hpp"

/// \file energy_model.hpp
/// Radio energy accounting.
///
/// The paper's primary overhead metric Φ is *radio-on time* (Table I), so
/// seconds are the first-class unit throughout the library. This model adds
/// the physical layer underneath: per-state supply currents for a
/// TELOSB-class mote (CC2420 radio), letting every experiment also report
/// Joules. Values default to the TELOSB/CC2420 datasheet operating points
/// the paper's COOJA emulation would have exercised.

namespace snipr::energy {

/// Radio operating states. `kOff` covers both radio sleep and MCU sleep —
/// the residual draw is lumped into one leakage current.
enum class RadioState : std::size_t {
  kOff = 0,
  kListen = 1,
  kTx = 2,
  kRx = 3,
};

inline constexpr std::size_t kRadioStateCount = 4;

/// Per-state supply currents and the supply voltage.
struct EnergyModel {
  double voltage_v{3.0};
  /// Currents in amperes, indexed by RadioState.
  std::array<double, kRadioStateCount> current_a{
      2.1e-6,   // off: MCU + radio sleep leakage
      18.8e-3,  // listen (CC2420 RX chain is on while listening)
      17.4e-3,  // tx at 0 dBm
      18.8e-3,  // rx
  };

  [[nodiscard]] double power_w(RadioState s) const noexcept {
    return voltage_v * current_a[static_cast<std::size_t>(s)];
  }

  /// Energy drawn by `span` spent in state `s`, in Joules.
  [[nodiscard]] double energy_j(RadioState s,
                                sim::Duration span) const noexcept {
    return power_w(s) * span.to_seconds();
  }
};

/// Integrates time spent per radio state along a simulation run. Each
/// activity adds its span when it is scheduled, since its duration is
/// known then (e.g. a beacon of fixed airtime).
class EnergyMeter {
 public:
  /// Add `span` of state `s`.
  void accumulate(RadioState s, sim::Duration span) noexcept;

  /// Total accumulated energy in Joules under the TELOSB/CC2420 model (a
  /// default-constructed EnergyModel).
  [[nodiscard]] double energy_j() const noexcept;

 private:
  std::array<sim::Duration, kRadioStateCount> accumulated_{};
};

}  // namespace snipr::energy
