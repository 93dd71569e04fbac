#include <gtest/gtest.h>

#include "snipr/contact/process.hpp"
#include "snipr/core/metrics.hpp"
#include "snipr/model/optimizer.hpp"

/// Per-slot contact lengths (Sec. V's full environment description):
/// model, optimizer and generator behaviour when slots differ in both
/// arrival rate and contact length.

namespace snipr::model {
namespace {

using contact::ArrivalProfile;
using sim::Duration;

/// Rush hours with fast traffic (short 2 s contacts every 300 s), off-peak
/// with slow pedestrians (long 6 s contacts every 1800 s).
struct HeterogeneousEnv {
  ArrivalProfile profile = ArrivalProfile::roadside();
  std::vector<double> lengths = [] {
    std::vector<double> l(24, 6.0);
    for (const std::size_t rush : {7U, 8U, 17U, 18U}) l[rush] = 2.0;
    return l;
  }();
  EpochModel model{profile, lengths, SnipParams{}};
};

/// Total contact capacity per epoch, seconds.
double epoch_contact_time_s(const EpochModel& model) {
  double total = 0.0;
  for (std::size_t s = 0; s < model.slot_count(); ++s) {
    total += model.slot_contact_time_s(s);
  }
  return total;
}

TEST(HeterogeneousModel, PerSlotAccessors) {
  const HeterogeneousEnv env;
  EXPECT_DOUBLE_EQ(env.model.slot_tcontact_s(7), 2.0);
  EXPECT_DOUBLE_EQ(env.model.slot_tcontact_s(0), 6.0);
  // Contact-count-weighted mean: (48·2 + 40·6)/88 = 3.818.
  EXPECT_NEAR(env.model.tcontact_s(), (48.0 * 2 + 40.0 * 6) / 88.0, 1e-9);
}

TEST(HeterogeneousModel, SlotContactTimes) {
  const HeterogeneousEnv env;
  EXPECT_DOUBLE_EQ(env.model.slot_contact_time_s(7), 24.0);  // 12 x 2 s
  EXPECT_DOUBLE_EQ(env.model.slot_contact_time_s(0), 12.0);  // 2 x 6 s
  EXPECT_DOUBLE_EQ(epoch_contact_time_s(env.model),
                   4 * 24.0 + 20 * 12.0);  // 336 s
}

TEST(HeterogeneousModel, UniformConstructorUnchanged) {
  const EpochModel uniform{ArrivalProfile::roadside(), 2.0, SnipParams{}};
  EXPECT_DOUBLE_EQ(uniform.tcontact_s(), 2.0);
  EXPECT_DOUBLE_EQ(uniform.slot_tcontact_s(12), 2.0);
  EXPECT_DOUBLE_EQ(epoch_contact_time_s(uniform), 176.0);
}

TEST(HeterogeneousModel, UniformDutyInverseStillRoundTrips) {
  const HeterogeneousEnv env;
  for (const double target : {5.0, 40.0, 100.0, 200.0}) {
    const auto duty = env.model.uniform_duty_for_capacity(target);
    ASSERT_TRUE(duty.has_value()) << target;
    EXPECT_NEAR(env.model.capacity_at_uniform_duty(*duty), target, 1e-6)
        << target;
  }
  EXPECT_FALSE(env.model.uniform_duty_for_capacity(400.0).has_value());
}

TEST(HeterogeneousModel, Validation) {
  EXPECT_THROW((EpochModel{ArrivalProfile::roadside(),
                           std::vector<double>(23, 2.0), SnipParams{}}),
               std::invalid_argument);
  std::vector<double> with_zero(24, 2.0);
  with_zero[3] = 0.0;
  EXPECT_THROW(
      (EpochModel{ArrivalProfile::roadside(), with_zero, SnipParams{}}),
      std::invalid_argument);
  const HeterogeneousEnv env;
  EXPECT_THROW((void)env.model.slot_tcontact_s(24), std::out_of_range);
}

TEST(HeterogeneousOptimizer, LinearEfficiencyDecidesPriority) {
  // e_lin = f·L²/(2·Ton): rush (1/300)·4 = 0.333; off-peak (1/1800)·36 =
  // 0.5 — the *long off-peak contacts* are now the cheaper capacity, so a
  // small budget goes to off-peak slots first, not rush hours.
  const HeterogeneousEnv env;
  const auto r = maximize_capacity(env.model, 50.0);
  EXPECT_GT(r.duties[0], 0.0);
  EXPECT_DOUBLE_EQ(r.duties[7], 0.0);
  // ρ of off-peak linear capacity: 2·Ton/(f·L²) = 2 s/s.
  EXPECT_NEAR(core::rho(r.phi_s, r.zeta_s), 2.0, 1e-6);
}

TEST(HeterogeneousOptimizer, MinimizeUsesOffPeakFirstThenRush) {
  const HeterogeneousEnv env;
  // Off-peak knee capacity: 20 slots × 12 s × Υ(knee)=0.5 = 120 s at the
  // off-peak knee 0.00333. Ask for more: rush slots must join.
  const auto r = minimize_overhead(env.model, 150.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.zeta_s, 150.0, 1e-6);
  EXPECT_GT(r.duties[0], 0.0);
  EXPECT_GT(r.duties[7], 0.0);
}

TEST(HeterogeneousOptimizer, SnipRhSingleDutyPaysVersusOpt) {
  // SNIP-RH learns ONE duty from the global mean length (3.82 s -> duty
  // 0.0052, well below the rush knee 0.01) and only probes its mask;
  // SNIP-OPT exploits per-slot lengths and buys the cheap long off-peak
  // contacts (ρ = 2 vs ρ = 3 in rush hours). For a target both can cover,
  // OPT must be strictly cheaper.
  const HeterogeneousEnv env;
  std::vector<bool> rush_mask(24, false);
  for (const std::size_t rush : {7U, 8U, 17U, 18U}) rush_mask[rush] = true;
  const double target = 20.0;
  const auto rh = env.model.snip_rh(rush_mask, target, 1e9);
  const auto opt = env.model.snip_opt(target, 1e9);
  ASSERT_TRUE(rh.met_target);
  ASSERT_TRUE(opt.met_target);
  EXPECT_NEAR(rh.metrics.phi_s, 60.0, 1e-6);   // ρ = 3 in rush hours
  EXPECT_NEAR(opt.metrics.phi_s, 40.0, 1e-6);  // ρ = 2 off-peak
}

TEST(HeterogeneousOptimizer, GlobalMeanDutyUndershootsRushKnee) {
  // The mis-learned duty caps RH's rush capacity: with duty 0.00524 the
  // rush Υ is 0.262, so only ~25 s of the 48 s knee capacity is probeable
  // — targets in (25, 48] that were feasible in the uniform scenario
  // become infeasible. (The ablation bench A7 sweeps this effect.)
  const HeterogeneousEnv env;
  std::vector<bool> rush_mask(24, false);
  for (const std::size_t rush : {7U, 8U, 17U, 18U}) rush_mask[rush] = true;
  const auto rh = env.model.snip_rh(rush_mask, 40.0, 1e9);
  EXPECT_FALSE(rh.met_target);
  EXPECT_NEAR(rh.metrics.zeta_s, 96.0 * 0.262, 1.0);
  // Overriding the duty with the rush slots' own knee restores the target.
  const auto fixed = env.model.snip_rh(rush_mask, 40.0, 1e9, 0.01);
  EXPECT_TRUE(fixed.met_target);
}

TEST(HeterogeneousProcess, PerSlotLengthsGenerated) {
  std::vector<std::unique_ptr<sim::Distribution>> lengths;
  for (std::size_t s = 0; s < 24; ++s) {
    const bool rush = s == 7 || s == 8 || s == 17 || s == 18;
    lengths.push_back(
        std::make_unique<sim::FixedDistribution>(rush ? 2.0 : 6.0));
  }
  contact::IntervalContactProcess p{contact::ArrivalProfile::roadside(),
                                    std::move(lengths)};
  sim::Rng rng{1};
  const auto contacts =
      contact::materialize(p, Duration::hours(24) * 2, rng);
  ASSERT_FALSE(contacts.empty());
  const contact::ArrivalProfile layout = contact::ArrivalProfile::roadside();
  for (const contact::Contact& c : contacts) {
    const auto slot = layout.slot_of(c.arrival);
    const bool rush = slot == 7 || slot == 8 || slot == 17 || slot == 18;
    EXPECT_DOUBLE_EQ(c.length.to_seconds(), rush ? 2.0 : 6.0)
        << "slot " << slot;
  }
}

TEST(HeterogeneousProcess, Validation) {
  EXPECT_THROW(
      contact::IntervalContactProcess(
          contact::ArrivalProfile::roadside(),
          std::vector<std::unique_ptr<sim::Distribution>>{}),
      std::invalid_argument);
  std::vector<std::unique_ptr<sim::Distribution>> with_null;
  for (std::size_t s = 0; s < 24; ++s) with_null.push_back(nullptr);
  EXPECT_THROW(
      contact::IntervalContactProcess(contact::ArrivalProfile::roadside(),
                                      std::move(with_null)),
      std::invalid_argument);
}

}  // namespace
}  // namespace snipr::model
