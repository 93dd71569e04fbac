#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "snipr/core/scenario_catalog.hpp"
#include "snipr/model/epoch_model.hpp"
#include "snipr/model/optimizer.hpp"

/// The fluid model's three bisections (`uniform_duty_for_capacity`,
/// `maximize_capacity`, `minimize_overhead`) stop at their fixed point:
/// the first step that leaves (lo, hi) unchanged. This pins them bit for
/// bit against test-local copies that run every step of their 200/300-step
/// cap, over every catalog environment and hand-built edge profiles, at
/// edge ζtarget and Φmax values. The copies also record whether the fixed
/// point came before the cap, so the suite shows the early stop ran.

namespace snipr::model {
namespace {

/// Reference bisection: all `steps` steps, no early stop. `fixed_at`
/// receives the first step that left the bracket unchanged.
template <class Pred>
std::pair<double, double> bisect_all(double lo, double hi, int steps,
                                     const Pred& go_up, int& fixed_at) {
  fixed_at = -1;
  for (int iter = 0; iter < steps; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double old_lo = lo;
    const double old_hi = hi;
    if (go_up(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (fixed_at < 0 && lo == old_lo && hi == old_hi) fixed_at = iter;
  }
  return {lo, hi};
}

/// What the reference solves saw, across the whole suite.
struct Coverage {
  int early = 0;     ///< solves whose fixed point came before the cap
  int capped = 0;    ///< solves that ran the full cap
  int leftover = 0;  ///< maximize_capacity's leftover branch
  int deficit = 0;   ///< minimize_overhead's marginal-group branch
};

std::optional<double> reference_uniform_duty(const EpochModel& m,
                                             double zeta_target_s,
                                             Coverage& cov) {
  if (zeta_target_s <= 0.0) return 0.0;
  if (m.capacity_at_uniform_duty(1.0) + 1e-12 < zeta_target_s) {
    return std::nullopt;
  }
  int fixed_at = 0;
  const auto [lo, hi] = bisect_all(
      0.0, 1.0, 200,
      [&](double d) { return m.capacity_at_uniform_duty(d) < zeta_target_s; },
      fixed_at);
  (fixed_at >= 0 ? cov.early : cov.capped)++;
  return hi;
}

struct Group {
  double rate{0.0};
  double tcontact_s{0.0};
  std::vector<contact::SlotIndex> slots;
  double total_slot_time_s{0.0};
  double linear_efficiency{0.0};
};

std::vector<Group> groups_of(const EpochModel& m) {
  std::map<std::pair<double, double>, Group> by_key;
  const double slot_len_s = m.profile().slot_length().to_seconds();
  for (contact::SlotIndex s = 0; s < m.slot_count(); ++s) {
    const double rate = m.profile().arrival_rate(s);
    if (rate <= 0.0) continue;
    const double tc = m.slot_tcontact_s(s);
    Group& g = by_key[{rate, tc}];
    g.rate = rate;
    g.tcontact_s = tc;
    g.slots.push_back(s);
    g.total_slot_time_s += slot_len_s;
    g.linear_efficiency = rate * tc * tc / (2.0 * m.ton_s());
  }
  std::vector<Group> out;
  for (auto& [key, g] : by_key) out.push_back(std::move(g));
  return out;
}

double duty_at(const Group& g, double ton, double lambda) {
  if (lambda >= g.linear_efficiency) return 0.0;
  return std::min(std::sqrt(g.rate * ton / (2.0 * lambda)), 1.0);
}

void assign(std::vector<double>& duties, const Group& g, double d) {
  for (const contact::SlotIndex s : g.slots) duties[s] = d;
}

WaterFillingResult finish(const EpochModel& m, std::vector<double> duties,
                          bool feasible) {
  const PlanMetrics metrics = m.evaluate(duties);
  return {std::move(duties), metrics.zeta_s, metrics.phi_s, feasible};
}

WaterFillingResult reference_maximize(const EpochModel& m, double phi_max_s,
                                      Coverage& cov) {
  std::vector<double> duties(m.slot_count(), 0.0);
  const std::vector<Group> groups = groups_of(m);
  if (groups.empty() || phi_max_s == 0.0) return finish(m, duties, true);
  const double ton = m.ton_s();
  double phi_all_on = 0.0;
  double max_e = 0.0;
  for (const Group& g : groups) {
    phi_all_on += g.total_slot_time_s;
    max_e = std::max(max_e, g.linear_efficiency);
  }
  if (phi_max_s >= phi_all_on) {
    for (const Group& g : groups) assign(duties, g, 1.0);
    return finish(m, duties, true);
  }
  const auto phi_at = [&](double lambda) {
    double phi = 0.0;
    for (const Group& g : groups) {
      phi += g.total_slot_time_s * duty_at(g, ton, lambda);
    }
    return phi;
  };
  int fixed_at = 0;
  const auto [lo, hi] = bisect_all(
      max_e * 1e-18, max_e, 300,
      [&](double mid) { return phi_at(mid) > phi_max_s; }, fixed_at);
  (fixed_at >= 0 ? cov.early : cov.capped)++;
  for (const Group& g : groups) assign(duties, g, duty_at(g, ton, hi));
  const double leftover = phi_max_s - phi_at(hi);
  if (leftover > 1e-12) {
    const auto marginal = [&](const Group& g) {
      return duties[g.slots.front()] == 0.0 && g.linear_efficiency >= lo;
    };
    double marginal_time = 0.0;
    double min_knee = 1.0;
    for (const Group& g : groups) {
      if (marginal(g)) {
        marginal_time += g.total_slot_time_s;
        min_knee = std::min(min_knee, std::min(1.0, ton / g.tcontact_s));
      }
    }
    if (marginal_time > 0.0) {
      ++cov.leftover;
      const double d = std::min(min_knee, leftover / marginal_time);
      for (const Group& g : groups) {
        if (marginal(g)) assign(duties, g, d);
      }
    }
  }
  return finish(m, duties, true);
}

WaterFillingResult reference_minimize(const EpochModel& m,
                                      double zeta_target_s, Coverage& cov) {
  std::vector<double> duties(m.slot_count(), 0.0);
  const std::vector<Group> groups = groups_of(m);
  if (zeta_target_s <= 0.0 || groups.empty()) {
    return finish(m, duties, !groups.empty() || zeta_target_s <= 0.0);
  }
  const double ton = m.ton_s();
  const auto knee = [&](const Group& g) {
    return std::min(1.0, ton / g.tcontact_s);
  };
  const auto group_zeta = [&](const Group& g, double d) {
    double zeta = 0.0;
    for (const contact::SlotIndex s : g.slots) zeta += m.slot_capacity_s(s, d);
    return zeta;
  };
  double zeta_all_on = 0.0;
  double max_e = 0.0;
  for (const Group& g : groups) {
    zeta_all_on += group_zeta(g, 1.0);
    max_e = std::max(max_e, g.linear_efficiency);
  }
  if (zeta_target_s > zeta_all_on + 1e-12) {
    for (const Group& g : groups) assign(duties, g, 1.0);
    return finish(m, duties, false);
  }
  const auto zeta_at = [&](double lambda) {
    double zeta = 0.0;
    for (const Group& g : groups) {
      zeta += group_zeta(g, duty_at(g, ton, lambda));
    }
    return zeta;
  };
  int fixed_at = 0;
  const auto [lo, hi] = bisect_all(
      max_e * 1e-18, max_e, 300,
      [&](double mid) { return zeta_at(mid) >= zeta_target_s; }, fixed_at);
  (fixed_at >= 0 ? cov.early : cov.capped)++;
  for (const Group& g : groups) assign(duties, g, duty_at(g, ton, hi));
  const double deficit = zeta_target_s - zeta_at(hi);
  if (deficit > 1e-12) {
    const auto marginal = [&](const Group& g) {
      return duties[g.slots.front()] == 0.0 && g.linear_efficiency >= lo;
    };
    double knee_capacity = 0.0;
    for (const Group& g : groups) {
      if (marginal(g)) knee_capacity += group_zeta(g, knee(g));
    }
    if (knee_capacity > 0.0) {
      ++cov.deficit;
      const double fraction = std::min(1.0, deficit / knee_capacity);
      for (const Group& g : groups) {
        if (marginal(g)) assign(duties, g, knee(g) * fraction);
      }
    } else {
      for (const Group& g : groups) assign(duties, g, duty_at(g, ton, lo));
    }
  }
  return finish(m, duties, true);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const WaterFillingResult& got, const WaterFillingResult& want,
                 const std::string& where) {
  ASSERT_EQ(got.duties.size(), want.duties.size()) << where;
  for (std::size_t s = 0; s < got.duties.size(); ++s) {
    EXPECT_EQ(bits(got.duties[s]), bits(want.duties[s]))
        << where << " slot " << s;
  }
  EXPECT_EQ(bits(got.zeta_s), bits(want.zeta_s)) << where;
  EXPECT_EQ(bits(got.phi_s), bits(want.phi_s)) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
}

/// ζtarget edge cases and a sweep: 0, tiny, a ladder up to all-on,
/// exactly all-on (both summation orders), and unreachable.
std::vector<double> zeta_targets(const EpochModel& m) {
  const double at_uniform = m.capacity_at_uniform_duty(1.0);
  const double at_plan =
      m.evaluate(std::vector<double>(m.slot_count(), 1.0)).zeta_s;
  std::vector<double> out{0.0, 1e-12, 1e-6, at_uniform, at_plan,
                          at_uniform * 2.0 + 1.0};
  for (const double f : {1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 0.999}) {
    out.push_back(f * at_uniform);
  }
  for (const double z : {1.0, 16.0, 32.0, 56.0, 100.0}) out.push_back(z);
  return out;
}

/// Φmax edge cases and a sweep: 0, small, large, exactly the live-slot
/// all-on overhead, and the whole epoch.
std::vector<double> phi_budgets(const EpochModel& m) {
  const double epoch_s = m.profile().epoch().to_seconds();
  const double slot_s = m.profile().slot_length().to_seconds();
  double live_s = 0.0;
  for (contact::SlotIndex s = 0; s < m.slot_count(); ++s) {
    if (m.profile().arrival_rate(s) > 0.0) live_s += slot_s;
  }
  std::vector<double> out{0.0, 1e-9, 0.5, live_s, epoch_s, epoch_s * 2.0};
  for (const double phi : {4.0, 21.6, 43.2, 86.4, 345.6, 1000.0, 5000.0}) {
    out.push_back(phi);
  }
  for (const double f : {0.01, 0.1, 0.5, 0.99}) out.push_back(f * live_s);
  return out;
}

void check_model(const EpochModel& m, const std::string& name,
                 Coverage& cov) {
  for (const double zeta : zeta_targets(m)) {
    const std::string where = name + " zeta=" + std::to_string(zeta);
    const std::optional<double> got = m.uniform_duty_for_capacity(zeta);
    const std::optional<double> want = reference_uniform_duty(m, zeta, cov);
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (got.has_value()) {
      EXPECT_EQ(bits(*got), bits(*want)) << where;
    }
    expect_same(minimize_overhead(m, zeta),
                reference_minimize(m, zeta, cov), where);
  }
  for (const double phi : phi_budgets(m)) {
    expect_same(maximize_capacity(m, phi), reference_maximize(m, phi, cov),
                name + " phi=" + std::to_string(phi));
  }
}

const sim::Duration kDay = sim::Duration::hours(24);

TEST(ModelBisectionEquivalence, EveryCatalogEnvironment) {
  Coverage cov;
  for (const core::CatalogEntry& entry :
       core::ScenarioCatalog::instance().entries()) {
    check_model(entry.scenario.make_model(), entry.name, cov);
  }
  // The early stop must actually have run, and both marginal branches.
  EXPECT_GT(cov.early, 0);
  EXPECT_GT(cov.leftover, 0);
  EXPECT_GT(cov.deficit, 0);
}

TEST(ModelBisectionEquivalence, AllSlotsDead) {
  Coverage cov;
  const EpochModel m{
      contact::ArrivalProfile{
          kDay, std::vector<double>(24, contact::ArrivalProfile::kNoContacts)},
      2.0};
  check_model(m, "dead", cov);
}

TEST(ModelBisectionEquivalence, SingleLiveGroup) {
  Coverage cov;
  std::vector<double> intervals(24, contact::ArrivalProfile::kNoContacts);
  intervals[8] = 300.0;
  intervals[17] = 300.0;
  check_model(EpochModel{contact::ArrivalProfile{kDay, intervals}, 2.0},
              "single", cov);
  EXPECT_GT(cov.early, 0);
  EXPECT_GT(cov.leftover, 0);
  EXPECT_GT(cov.deficit, 0);
}

TEST(ModelBisectionEquivalence, TiedMarginalGroups) {
  // Two (rate, length) groups with one linear efficiency f·T²/(2·Ton):
  // 1/300 s⁻¹ at 2 s and 1/1200 s⁻¹ at 4 s. Both go marginal at the same
  // λ, so the leftover and deficit are split across them.
  Coverage cov;
  std::vector<double> intervals(24, 1800.0);
  std::vector<double> lengths(24, 1.0);
  for (const std::size_t s : {7U, 8U}) {
    intervals[s] = 300.0;
    lengths[s] = 2.0;
  }
  for (const std::size_t s : {17U, 18U, 19U}) {
    intervals[s] = 1200.0;
    lengths[s] = 4.0;
  }
  check_model(
      EpochModel{contact::ArrivalProfile{kDay, intervals}, lengths}, "tied",
      cov);
  EXPECT_GT(cov.leftover, 0);
  EXPECT_GT(cov.deficit, 0);
}

}  // namespace
}  // namespace snipr::model
