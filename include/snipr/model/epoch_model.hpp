#pragma once

#include <optional>
#include <vector>

#include "snipr/contact/profile.hpp"
#include "snipr/model/snip_model.hpp"

/// \file epoch_model.hpp
/// Fluid (closed-form) epoch analysis of SNIP scheduling mechanisms.
///
/// This module produces the paper's "numerical results" (Figs. 5 and 6):
/// given the per-slot arrival profile, the contact length, and Ton, it
/// evaluates any per-slot duty plan and computes the outcome of the three
/// scheduling mechanisms — SNIP-AT, SNIP-OPT and SNIP-RH — without running
/// the discrete-event simulator. The simulator (snipr::node + snipr::core)
/// validates these predictions (Figs. 7 and 8).

namespace snipr::model {

/// ζ/Φ/ρ of an executed epoch plan.
struct PlanMetrics {
  double zeta_s{0.0};  ///< probed contact capacity per epoch (s)
  double phi_s{0.0};   ///< probing overhead per epoch (radio-on s)
  /// ρ = Φ/ζ (core::rho): +∞ when nothing is probed but energy was spent.
  [[nodiscard]] double rho() const noexcept;
};

/// Outcome of one scheduling mechanism for one (ζtarget, Φmax) point.
struct ScheduleOutcome {
  std::vector<double> duties;  ///< nominal per-slot duty-cycles
  PlanMetrics metrics;         ///< achieved ζ, Φ
  bool met_target{false};      ///< ζ >= ζtarget (within fluid model)
};

class EpochModel {
 public:
  /// \param profile        per-slot arrival profile (the environment).
  /// \param tcontact_s     (mean) contact length, identical in every slot;
  ///                       the fluid analysis treats lengths as fixed,
  ///                       matching Sec. VII-A.
  /// \param params         SNIP radio parameters (Ton).
  EpochModel(contact::ArrivalProfile profile, double tcontact_s,
             SnipParams params = {});

  /// Per-slot contact lengths: Sec. V's full environment description
  /// ("both contact arrival frequency and contact length distribution"
  /// per time-slot). One mean length per slot, all > 0.
  EpochModel(contact::ArrivalProfile profile,
             std::vector<double> tcontact_per_slot_s, SnipParams params = {});

  [[nodiscard]] const contact::ArrivalProfile& profile() const noexcept {
    return profile_;
  }
  /// Capacity-weighted mean contact length across the epoch — what a
  /// node's global EWMA of probed lengths converges toward.
  [[nodiscard]] double tcontact_s() const noexcept { return tcontact_mean_s_; }
  /// Mean contact length in slot `s`.
  [[nodiscard]] double slot_tcontact_s(contact::SlotIndex s) const;
  [[nodiscard]] double ton_s() const noexcept { return params_.ton_s; }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return profile_.slot_count();
  }

  /// Total contact capacity arriving during slot `s` (t_i·f_i·Tcontact), s.
  [[nodiscard]] double slot_contact_time_s(contact::SlotIndex s) const;
  /// ζ_i(d): capacity probed in slot `s` at duty `d` (fluid), seconds.
  [[nodiscard]] double slot_capacity_s(contact::SlotIndex s, double duty) const;
  /// Knee duty Ton/T̄contact of the capacity-weighted mean (clamped to 1) —
  /// the duty SNIP-RH derives from its single learned length.
  [[nodiscard]] double knee() const;

  /// ζ for a uniform duty across the whole epoch (SNIP-AT's shape).
  [[nodiscard]] double capacity_at_uniform_duty(double duty) const;
  /// Smallest uniform duty with ζ(d) >= target; nullopt if unreachable.
  /// Bisects for at most 200 steps and stops at the first step that
  /// leaves its bracket unchanged, since every later step would repeat
  /// it: the same duty as all 200, bit for bit.
  [[nodiscard]] std::optional<double> uniform_duty_for_capacity(
      double zeta_target_s) const;

  /// Evaluate an explicit per-slot duty plan (no gating).
  [[nodiscard]] PlanMetrics evaluate(const std::vector<double>& duties) const;

  /// SNIP-AT (Sec. IV): SNIP in all slots at one duty sized for the target,
  /// capped by the energy budget Φmax (duty <= Φmax/Tepoch).
  [[nodiscard]] ScheduleOutcome snip_at(double zeta_target_s,
                                        double phi_max_s) const;

  /// SNIP-RH (Sec. VI): SNIP only in masked slots at duty
  /// `duty_override.value_or(knee())`, walking slots in time order and
  /// stopping when the target is met (condition 2) or the budget is
  /// exhausted (condition 3). Fluid approximation: data is assumed
  /// available whenever probing is allowed.
  [[nodiscard]] ScheduleOutcome snip_rh(
      const std::vector<bool>& rush_mask, double zeta_target_s,
      double phi_max_s,
      std::optional<double> duty_override = std::nullopt) const;

  /// SNIP-OPT (Sec. V): step 1 maximizes ζ under Φ <= Φmax; if the optimum
  /// is below the target that plan is returned, otherwise step 2 minimizes
  /// Φ subject to ζ >= ζtarget.
  [[nodiscard]] ScheduleOutcome snip_opt(double zeta_target_s,
                                         double phi_max_s) const;

 private:
  contact::ArrivalProfile profile_;
  std::vector<double> tcontact_per_slot_s_;
  double tcontact_mean_s_{0.0};
  SnipParams params_;
};

}  // namespace snipr::model
