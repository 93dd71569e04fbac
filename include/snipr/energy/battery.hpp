#pragma once

#include "snipr/sim/time.hpp"

/// \file battery.hpp
/// Battery capacity and lifetime projection.
///
/// The paper's entire motivation is node life longevity: the probing
/// budget Φmax exists so a node "can assure a minimal lifetime" (Sec. V).
/// This helper turns the per-epoch Joule figures the experiment runner
/// reports into the headline number a deployment engineer wants — years
/// of operation on a given battery.

namespace snipr::energy {

class Battery {
 public:
  /// \param capacity_j usable energy in Joules (> 0).
  explicit Battery(double capacity_j);

  /// Two AA alkaline cells (2600 mAh at 3 V, 70% usable at mote loads):
  /// the TELOSB reference supply, ~19.7 kJ usable.
  [[nodiscard]] static Battery two_aa();

  [[nodiscard]] double capacity_j() const noexcept { return capacity_j_; }

  /// Projected lifetime in years at a steady per-epoch draw (>= 0); +inf
  /// for zero draw.
  [[nodiscard]] double lifetime_years(double joules_per_epoch,
                                      sim::Duration epoch) const;

 private:
  double capacity_j_;
};

}  // namespace snipr::energy
