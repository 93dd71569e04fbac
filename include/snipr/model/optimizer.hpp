#pragma once

#include <vector>

#include "snipr/model/epoch_model.hpp"

/// \file optimizer.hpp
/// Exact solver for the SNIP-OPT scheduling program (Sec. V of the paper).
///
/// Both steps are separable concave programs: per-slot capacity ζ_i(d_i)
/// is linear in d_i up to the knee d = Ton/Tcontact and strictly concave
/// above it, with marginal efficiency
///     e_i(d) = dζ_i/dΦ_i = f_i·Tcontact²/(2·Ton)   for d <= knee
///            = f_i·Ton/(2·d²)                      for d >  knee
/// continuous and non-increasing in d. Water-filling on the Lagrange
/// multiplier λ is therefore optimal: each slot takes the largest duty
/// whose marginal efficiency clears the bar, d(λ) = sqrt(f·Ton/(2λ))
/// clamped to [0, 1], and the slot whose *linear* segment sits exactly at
/// the bar absorbs the residual budget/target (any split inside [0, knee]
/// is equally efficient). Note the continuity at the knee means a
/// high-rate slot is pushed *above* its knee before a lower-rate slot's
/// linear segment is touched — e.g. in the road-side scenario the optimal
/// plan for ζtarget = 56 s raises the rush-hour duty to 0.012 rather than
/// activating off-peak slots. Equal-rate slots are filled at equal duty,
/// which matches the uniform rush-hour duty SNIP-RH uses.
///
/// Both steps bisect on λ for at most 300 steps, and stop early at the
/// bisection's fixed point: a step that leaves (lo, hi) unchanged has
/// landed on adjacent doubles, the next midpoint and its test repeat it,
/// and so would every step after it. The plan is therefore bit-identical
/// to running all 300 (`property_model_bisection_equivalence_test`); in
/// practice the fixed point comes after 53 to 115 steps.

namespace snipr::model {

struct WaterFillingResult {
  std::vector<double> duties;
  double zeta_s{0.0};
  double phi_s{0.0};
  /// For minimize_overhead: whether ζtarget is reachable at all (d_i = 1).
  bool feasible{true};
};

/// Step 1: maximize ζ subject to Φ = Σ t_i·d_i <= phi_max and d_i in [0,1].
[[nodiscard]] WaterFillingResult maximize_capacity(const EpochModel& model,
                                                   double phi_max_s);

/// Step 2: minimize Φ subject to ζ >= zeta_target and d_i in [0,1].
/// When the target exceeds the epoch optimum (all d_i = 1), returns that
/// plan with feasible = false.
[[nodiscard]] WaterFillingResult minimize_overhead(const EpochModel& model,
                                                   double zeta_target_s);

}  // namespace snipr::model
