#include "snipr/model/epoch_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "snipr/core/metrics.hpp"
#include "snipr/model/optimizer.hpp"

namespace snipr::model {

double PlanMetrics::rho() const noexcept { return core::rho(phi_s, zeta_s); }

namespace {

std::vector<double> uniform_lengths(const contact::ArrivalProfile& profile,
                                    double tcontact_s) {
  return std::vector<double>(profile.slot_count(), tcontact_s);
}

}  // namespace

EpochModel::EpochModel(contact::ArrivalProfile profile, double tcontact_s,
                       SnipParams params)
    : EpochModel{profile, uniform_lengths(profile, tcontact_s), params} {}

EpochModel::EpochModel(contact::ArrivalProfile profile,
                       std::vector<double> tcontact_per_slot_s,
                       SnipParams params)
    : profile_{std::move(profile)},
      tcontact_per_slot_s_{std::move(tcontact_per_slot_s)},
      params_{params} {
  if (tcontact_per_slot_s_.size() != profile_.slot_count()) {
    throw std::invalid_argument(
        "EpochModel: one contact length per slot required");
  }
  for (const double l : tcontact_per_slot_s_) {
    if (!(l > 0.0)) {
      throw std::invalid_argument("EpochModel: tcontact must be > 0");
    }
  }
  if (!(params.ton_s > 0.0)) {
    throw std::invalid_argument("EpochModel: ton must be > 0");
  }
  // Capacity-weighted mean: Σ n_i·l_i / Σ n_i (contact-count weighting is
  // what a learner sampling probed contacts converges to; for capacity
  // weighting long contacts would count double — we follow the learner).
  double contacts = 0.0;
  double length_sum = 0.0;
  for (contact::SlotIndex s = 0; s < profile_.slot_count(); ++s) {
    const double n = profile_.expected_contacts(s);
    contacts += n;
    length_sum += n * tcontact_per_slot_s_[s];
  }
  tcontact_mean_s_ =
      contacts > 0.0 ? length_sum / contacts : tcontact_per_slot_s_.front();
}

double EpochModel::slot_tcontact_s(contact::SlotIndex s) const {
  if (s >= tcontact_per_slot_s_.size()) {
    throw std::out_of_range("EpochModel::slot_tcontact_s");
  }
  return tcontact_per_slot_s_[s];
}

double EpochModel::slot_contact_time_s(contact::SlotIndex s) const {
  return profile_.expected_contacts(s) * slot_tcontact_s(s);
}

double EpochModel::slot_capacity_s(contact::SlotIndex s, double duty) const {
  return slot_contact_time_s(s) *
         upsilon_fixed(duty, slot_tcontact_s(s), params_.ton_s);
}

double EpochModel::knee() const {
  return knee_duty(tcontact_mean_s_, params_.ton_s);
}

double EpochModel::capacity_at_uniform_duty(double duty) const {
  double total = 0.0;
  for (contact::SlotIndex s = 0; s < slot_count(); ++s) {
    total += slot_capacity_s(s, duty);
  }
  return total;
}

std::optional<double> EpochModel::uniform_duty_for_capacity(
    double zeta_target_s) const {
  if (zeta_target_s <= 0.0) return 0.0;
  // ζ(d) is continuous and non-decreasing but, with per-slot lengths, a
  // mixture of piecewise forms: invert by bisection.
  if (capacity_at_uniform_duty(1.0) + 1e-12 < zeta_target_s) {
    return std::nullopt;
  }
  // Stop at the fixed point: once a step leaves (lo, hi) as it was, every
  // later step repeats it, so the 200-step cap's answer is already in hand.
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double old_lo = lo;
    const double old_hi = hi;
    if (capacity_at_uniform_duty(mid) < zeta_target_s) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (lo == old_lo && hi == old_hi) break;
  }
  return hi;
}

PlanMetrics EpochModel::evaluate(const std::vector<double>& duties) const {
  if (duties.size() != slot_count()) {
    throw std::invalid_argument("EpochModel::evaluate: plan size mismatch");
  }
  const double slot_len_s = profile_.slot_length().to_seconds();
  PlanMetrics m;
  for (contact::SlotIndex s = 0; s < slot_count(); ++s) {
    const double d = std::clamp(duties[s], 0.0, 1.0);
    m.zeta_s += slot_capacity_s(s, d);
    m.phi_s += slot_len_s * d;
  }
  return m;
}

ScheduleOutcome EpochModel::snip_at(double zeta_target_s,
                                    double phi_max_s) const {
  const double epoch_s = profile_.epoch().to_seconds();
  const double budget_duty = std::clamp(phi_max_s / epoch_s, 0.0, 1.0);
  const double needed_duty =
      uniform_duty_for_capacity(zeta_target_s).value_or(1.0);
  const double duty = std::min(needed_duty, budget_duty);

  ScheduleOutcome out;
  out.duties.assign(slot_count(), duty);
  out.metrics = evaluate(out.duties);
  out.met_target = out.metrics.zeta_s + 1e-9 >= zeta_target_s;
  return out;
}

ScheduleOutcome EpochModel::snip_rh(const std::vector<bool>& rush_mask,
                                    double zeta_target_s, double phi_max_s,
                                    std::optional<double> duty_override) const {
  if (rush_mask.size() != slot_count()) {
    throw std::invalid_argument("EpochModel::snip_rh: mask size mismatch");
  }
  const double duty = std::clamp(duty_override.value_or(knee()), 0.0, 1.0);
  const double slot_len_s = profile_.slot_length().to_seconds();

  ScheduleOutcome out;
  out.duties.assign(slot_count(), 0.0);
  double zeta = 0.0;
  double phi = 0.0;
  // Walk slots in time order; inside a masked slot capacity and overhead
  // accrue linearly with time, so a mid-slot stop (target met / budget
  // exhausted) scales both proportionally.
  for (contact::SlotIndex s = 0; s < slot_count(); ++s) {
    if (!rush_mask[s] || duty <= 0.0) continue;
    const double slot_zeta = slot_capacity_s(s, duty);
    const double slot_phi = slot_len_s * duty;
    double fraction = 1.0;
    if (slot_zeta > 0.0) {
      fraction = std::min(fraction, (zeta_target_s - zeta) / slot_zeta);
    } else if (zeta + 1e-12 >= zeta_target_s) {
      fraction = 0.0;  // nothing left to upload, slot has no capacity
    }
    if (slot_phi > 0.0) {
      fraction = std::min(fraction, (phi_max_s - phi) / slot_phi);
    }
    fraction = std::clamp(fraction, 0.0, 1.0);
    zeta += fraction * slot_zeta;
    phi += fraction * slot_phi;
    out.duties[s] = duty * fraction;  // effective duty over the whole slot
    if (zeta + 1e-12 >= zeta_target_s || phi + 1e-12 >= phi_max_s) {
      // Conditions 2/3 keep SNIP off for the rest of the epoch.
      break;
    }
  }
  out.metrics.zeta_s = zeta;
  out.metrics.phi_s = phi;
  out.met_target = zeta + 1e-9 >= zeta_target_s;
  return out;
}

ScheduleOutcome EpochModel::snip_opt(double zeta_target_s,
                                     double phi_max_s) const {
  const WaterFillingResult best = maximize_capacity(*this, phi_max_s);
  ScheduleOutcome out;
  if (best.zeta_s + 1e-9 < zeta_target_s) {
    // Step 1 plan is final: the target is unreachable under the budget and
    // the node is expected to lower its data rate (Sec. V).
    out.duties = best.duties;
    out.metrics.zeta_s = best.zeta_s;
    out.metrics.phi_s = best.phi_s;
    out.met_target = false;
    return out;
  }
  const WaterFillingResult cheapest =
      minimize_overhead(*this, zeta_target_s);
  out.duties = cheapest.duties;
  out.metrics.zeta_s = cheapest.zeta_s;
  out.metrics.phi_s = cheapest.phi_s;
  out.met_target = true;
  return out;
}

}  // namespace snipr::model
