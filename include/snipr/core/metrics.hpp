#pragma once

#include <limits>

/// \file metrics.hpp
/// The paper's three figures of merit, defined once:
///
///   ζ  probed contact capacity, Σ (departure − awareness) over probed
///      contacts, in seconds per epoch. Higher is better.
///   Φ  probing overhead, the radio-on time spent probing, in seconds
///      per epoch. A cost: lower is better.
///   ρ  = Φ/ζ, radio-on seconds per second of probed capacity (a ratio).
///      Lower is better.
///
/// Every result that reports ρ (`RunResult`, `BatchAggregate`,
/// `model::PlanMetrics`, the figure benches) computes it with `rho`.

namespace snipr::core {

/// ρ = Φ/ζ. A run that spent energy and probed nothing gets +∞, the
/// worst value, never 0, the best; an idle run (Φ = ζ = 0) gets 0.
[[nodiscard]] inline double rho(double phi_s, double zeta_s) noexcept {
  if (zeta_s > 0.0) return phi_s / zeta_s;
  return phi_s > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

}  // namespace snipr::core
