#include "snipr/model/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace snipr::model {
namespace {

/// Slots grouped by (arrival rate, contact length): within a group every
/// slot has the same marginal-efficiency curve, so an optimal plan may
/// (and we do) give them equal duty.
struct RateGroup {
  double rate{0.0};                       // contacts per second
  double tcontact_s{0.0};                 // mean contact length
  std::vector<contact::SlotIndex> slots;  // members
  double total_slot_time_s{0.0};          // Σ t_i
  double linear_efficiency{0.0};          // e_lin = f·Tcontact²/(2·Ton)
};

std::vector<RateGroup> live_groups(const EpochModel& model) {
  std::map<std::pair<double, double>, RateGroup> by_key;
  const double slot_len_s = model.profile().slot_length().to_seconds();
  const double ton = model.ton_s();
  for (contact::SlotIndex s = 0; s < model.slot_count(); ++s) {
    const double rate = model.profile().arrival_rate(s);
    if (rate <= 0.0) continue;  // dead slot: optimal duty is 0
    const double tc = model.slot_tcontact_s(s);
    RateGroup& g = by_key[{rate, tc}];
    g.rate = rate;
    g.tcontact_s = tc;
    g.slots.push_back(s);
    g.total_slot_time_s += slot_len_s;
    g.linear_efficiency = rate * tc * tc / (2.0 * ton);
  }
  std::vector<RateGroup> out;
  out.reserve(by_key.size());
  for (auto& [key, group] : by_key) out.push_back(std::move(group));
  return out;
}

/// Duty chosen by a group when the marginal-efficiency bar is λ.
///
/// The per-slot capacity ζ(d) is linear up to the knee Ton/Tcontact
/// (constant marginal e_lin = f·Tcontact²/(2·Ton)) and concave above it
/// with marginal e(d) = f·Ton/(2d²) — note the above-knee marginal depends
/// only on the rate, and the two branches meet continuously at the knee.
/// Hence:
///   λ >  e_lin : nothing is worth buying              -> d = 0
///   λ == e_lin : anywhere in [0, knee] (degenerate)   -> handled by caller
///   λ <  e_lin : buy past the knee up to e(d) = λ     -> d = sqrt(f·Ton/2λ)
double duty_at_lambda(const RateGroup& g, double ton, double lambda) {
  if (lambda >= g.linear_efficiency) return 0.0;
  const double d = std::sqrt(g.rate * ton / (2.0 * lambda));
  return std::min(d, 1.0);
}

WaterFillingResult finish(const EpochModel& model,
                          const std::vector<double>& duties, bool feasible) {
  WaterFillingResult r;
  r.duties = duties;
  const PlanMetrics m = model.evaluate(duties);
  r.zeta_s = m.zeta_s;
  r.phi_s = m.phi_s;
  r.feasible = feasible;
  return r;
}

void assign(std::vector<double>& duties, const RateGroup& g, double d) {
  for (const contact::SlotIndex s : g.slots) duties[s] = d;
}

}  // namespace

WaterFillingResult maximize_capacity(const EpochModel& model,
                                     double phi_max_s) {
  if (phi_max_s < 0.0) {
    throw std::invalid_argument("maximize_capacity: negative budget");
  }
  std::vector<double> duties(model.slot_count(), 0.0);
  const std::vector<RateGroup> groups = live_groups(model);
  if (groups.empty() || phi_max_s == 0.0) {
    return finish(model, duties, true);
  }
  const double ton = model.ton_s();
  const auto group_knee = [&](const RateGroup& g) {
    return std::min(1.0, ton / g.tcontact_s);
  };

  double phi_all_on = 0.0;
  double max_e = 0.0;
  for (const RateGroup& g : groups) {
    phi_all_on += g.total_slot_time_s;
    max_e = std::max(max_e, g.linear_efficiency);
  }
  if (phi_max_s >= phi_all_on) {
    for (const RateGroup& g : groups) assign(duties, g, 1.0);
    return finish(model, duties, true);
  }

  const auto phi_at = [&](double lambda) {
    double phi = 0.0;
    for (const RateGroup& g : groups) {
      phi += g.total_slot_time_s * duty_at_lambda(g, ton, lambda);
    }
    return phi;
  };

  // Φ(λ) is non-increasing with a downward jump of t·knee at each group's
  // e_lin (the whole linear segment activates at once). Bisect to the
  // budget: invariant Φ(lo) > phi_max >= Φ(hi).
  double lo = max_e * 1e-18;
  double hi = max_e;
  for (int iter = 0; iter < 300; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double old_lo = lo;
    const double old_hi = hi;
    if (phi_at(mid) > phi_max_s) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (lo == old_lo && hi == old_hi) break;  // fixed point, see header
  }
  for (const RateGroup& g : groups) {
    assign(duties, g, duty_at_lambda(g, ton, hi));
  }
  // If λ* landed on a group's e_lin, that marginal group's linear segment
  // absorbs the leftover budget (any split inside [0, knee] is equally
  // efficient; equal duty keeps the plan symmetric).
  double leftover = phi_max_s - phi_at(hi);
  if (leftover > 1e-12) {
    double marginal_time = 0.0;
    double min_marginal_knee = 1.0;
    for (const RateGroup& g : groups) {
      if (duties[g.slots.front()] == 0.0 && g.linear_efficiency >= lo) {
        marginal_time += g.total_slot_time_s;
        min_marginal_knee = std::min(min_marginal_knee, group_knee(g));
      }
    }
    if (marginal_time > 0.0) {
      // Marginal groups at the same e_lin share the leftover evenly; the
      // common duty never exceeds any of their knees.
      const double d = std::min(min_marginal_knee, leftover / marginal_time);
      for (const RateGroup& g : groups) {
        if (duties[g.slots.front()] == 0.0 && g.linear_efficiency >= lo) {
          assign(duties, g, d);
        }
      }
    }
  }
  return finish(model, duties, true);
}

WaterFillingResult minimize_overhead(const EpochModel& model,
                                     double zeta_target_s) {
  std::vector<double> duties(model.slot_count(), 0.0);
  const std::vector<RateGroup> groups = live_groups(model);
  if (zeta_target_s <= 0.0 || groups.empty()) {
    return finish(model, duties, !groups.empty() || zeta_target_s <= 0.0);
  }
  const double ton = model.ton_s();
  const auto group_knee = [&](const RateGroup& g) {
    return std::min(1.0, ton / g.tcontact_s);
  };

  const auto group_zeta = [&](const RateGroup& g, double d) {
    double zeta = 0.0;
    for (const contact::SlotIndex s : g.slots) {
      zeta += model.slot_capacity_s(s, d);
    }
    return zeta;
  };

  double zeta_all_on = 0.0;
  double max_e = 0.0;
  for (const RateGroup& g : groups) {
    zeta_all_on += group_zeta(g, 1.0);
    max_e = std::max(max_e, g.linear_efficiency);
  }
  if (zeta_target_s > zeta_all_on + 1e-12) {
    for (const RateGroup& g : groups) assign(duties, g, 1.0);
    return finish(model, duties, false);
  }

  const auto zeta_at = [&](double lambda) {
    double zeta = 0.0;
    for (const RateGroup& g : groups) {
      zeta += group_zeta(g, duty_at_lambda(g, ton, lambda));
    }
    return zeta;
  };

  // ζ(λ) is non-increasing; find the largest bar still meeting the target:
  // invariant ζ(lo) >= target > ζ(hi).
  double lo = max_e * 1e-18;
  double hi = max_e;
  for (int iter = 0; iter < 300; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double old_lo = lo;
    const double old_hi = hi;
    if (zeta_at(mid) >= zeta_target_s) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (lo == old_lo && hi == old_hi) break;  // fixed point, see header
  }
  // Allocate from the cheap side (hi: ζ < target), then buy the deficit
  // from the marginal group's linear segment at its constant efficiency.
  for (const RateGroup& g : groups) {
    assign(duties, g, duty_at_lambda(g, ton, hi));
  }
  double deficit = zeta_target_s - zeta_at(hi);
  if (deficit > 1e-12) {
    // ζ of a marginal group grows linearly in its own segment: its knee
    // duty buys group_zeta(knee_g). Scale all marginal groups by a common
    // fraction of their knees (same efficiency, same cost per ζ).
    double knee_capacity = 0.0;
    for (const RateGroup& g : groups) {
      if (duties[g.slots.front()] == 0.0 && g.linear_efficiency >= lo) {
        knee_capacity += group_zeta(g, group_knee(g));
      }
    }
    if (knee_capacity > 0.0) {
      const double fraction = std::min(1.0, deficit / knee_capacity);
      for (const RateGroup& g : groups) {
        if (duties[g.slots.front()] == 0.0 && g.linear_efficiency >= lo) {
          assign(duties, g, group_knee(g) * fraction);
        }
      }
    } else {
      // Continuous region: fall back to the guaranteed-feasible side.
      for (const RateGroup& g : groups) {
        assign(duties, g, duty_at_lambda(g, ton, lo));
      }
    }
  }
  return finish(model, duties, true);
}

}  // namespace snipr::model
