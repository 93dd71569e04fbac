#pragma once

#include "snipr/sim/distributions.hpp"
#include "snipr/sim/rng.hpp"

/// \file snip_model.hpp
/// Closed-form SNIP contact-probing model (Sec. III, eq. 1 of the paper).
///
/// SNIP wakes the sensor radio for Ton every cycle Tcycle = Ton/d and
/// broadcasts a beacon; the mobile radio is always on, so a contact is
/// probed as soon as a wakeup lands inside it. For a contact of fixed
/// length Tcontact:
///
///     Υ(d, Tcontact) = Tcontact·d / (2·Ton)          if Tcycle >= Tcontact
///                    = 1 − Ton / (2·d·Tcontact)       if Tcycle <  Tcontact
///
/// where Υ = E[Tprobed]/Tcontact is the probed fraction of contact
/// capacity. The two branches meet at the knee d = Ton/Tcontact with
/// Υ = 1/2; below the knee capacity is linear in d (constant per-unit cost
/// ρ), above it each extra duty buys less. SNIP-RH's duty-cycle choice
/// d_rh = Ton/T̄contact (Sec. VI-C) is exactly this knee.
///
/// Calibration note: the paper never states Ton; every published boundary
/// in its evaluation (see DESIGN.md) pins Ton = 20 ms, which is this
/// library's default.

namespace snipr::model {

/// SNIP radio parameters.
struct SnipParams {
  /// Radio-on time per probing wakeup (beacon + reply window), seconds.
  double ton_s{0.02};
};

/// Probed fraction Υ for fixed-length contacts (eq. 1). `duty` is clamped
/// to [0, 1]; returns 0 for non-positive duty.
[[nodiscard]] double upsilon_fixed(double duty, double tcontact_s,
                                   double ton_s);

/// The knee duty Ton/Tcontact, clamped to 1.
[[nodiscard]] double knee_duty(double tcontact_s, double ton_s);

/// Capacity-weighted probed fraction for exponentially distributed contact
/// lengths with the given mean (footnote 1 of the paper):
///   Ῡ = E[Tprobed]/E[Tcontact] with
///   E[Tprobed] = ∫ min-form over the exponential density (closed form).
[[nodiscard]] double upsilon_exponential(double duty, double mean_s,
                                         double ton_s);

/// Capacity-weighted probed fraction for an arbitrary length distribution,
/// by Monte-Carlo over `samples` draws (deterministic under a seeded rng).
[[nodiscard]] double upsilon_monte_carlo(double duty,
                                         const sim::Distribution& length,
                                         double ton_s, std::size_t samples,
                                         sim::Rng& rng);

/// Expected probed time for one contact of length `l` under cycle `tcycle`
/// (the primitive behind every Υ form above).
[[nodiscard]] double expected_probed_time(double l_s, double tcycle_s);

}  // namespace snipr::model
