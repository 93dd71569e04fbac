#include "snipr/model/epoch_model.hpp"

#include <gtest/gtest.h>

#include "snipr/contact/profile.hpp"

namespace snipr::model {
namespace {

EpochModel roadside_model() {
  return EpochModel{contact::ArrivalProfile::roadside(), 2.0, SnipParams{}};
}

std::vector<bool> roadside_mask() {
  std::vector<bool> mask(24, false);
  mask[7] = mask[8] = mask[17] = mask[18] = true;
  return mask;
}

TEST(EpochModel, ContactTimes) {
  const EpochModel m = roadside_model();
  double epoch_s = 0.0;
  for (std::size_t s = 0; s < m.slot_count(); ++s) {
    epoch_s += m.slot_contact_time_s(s);
  }
  EXPECT_DOUBLE_EQ(epoch_s, 176.0);  // 96 rush + 80 other
  EXPECT_DOUBLE_EQ(m.slot_contact_time_s(7), 24.0);   // 12 contacts x 2 s
  EXPECT_DOUBLE_EQ(m.slot_contact_time_s(0), 4.0);    // 2 contacts x 2 s
  EXPECT_DOUBLE_EQ(m.knee(), 0.01);
}

TEST(EpochModel, SlotCapacityUsesEquationOne) {
  const EpochModel m = roadside_model();
  // At the knee Υ = 1/2: slot 7 probes half its 24 s.
  EXPECT_DOUBLE_EQ(m.slot_capacity_s(7, 0.01), 12.0);
  // Linear regime: Υ = 50·d.
  EXPECT_DOUBLE_EQ(m.slot_capacity_s(7, 0.001), 24.0 * 0.05);
}

TEST(EpochModel, UniformDutyCapacity) {
  const EpochModel m = roadside_model();
  EXPECT_DOUBLE_EQ(m.capacity_at_uniform_duty(0.001), 8.8);  // 176 x 0.05
  EXPECT_DOUBLE_EQ(m.capacity_at_uniform_duty(0.01), 88.0);  // knee
}

TEST(EpochModel, UniformDutyInverse) {
  const EpochModel m = roadside_model();
  for (const double target : {4.0, 8.8, 40.0, 88.0, 120.0}) {
    const auto duty = m.uniform_duty_for_capacity(target);
    ASSERT_TRUE(duty.has_value()) << target;
    EXPECT_NEAR(m.capacity_at_uniform_duty(*duty), target, 1e-9) << target;
  }
  // Beyond the epoch's total contact time: unreachable.
  EXPECT_FALSE(m.uniform_duty_for_capacity(176.0).has_value());
}

TEST(EpochModel, EvaluatePlanSumsSlots) {
  const EpochModel m = roadside_model();
  std::vector<double> duties(24, 0.0);
  duties[7] = 0.01;
  duties[0] = 0.001;
  const PlanMetrics metrics = m.evaluate(duties);
  EXPECT_DOUBLE_EQ(metrics.zeta_s, 12.0 + 4.0 * 0.05);
  EXPECT_DOUBLE_EQ(metrics.phi_s, 3600 * 0.01 + 3600 * 0.001);
  EXPECT_THROW((void)m.evaluate(std::vector<double>(23, 0.0)),
               std::invalid_argument);
}

TEST(EpochModel, PlanMetricsRho) {
  PlanMetrics m;
  EXPECT_DOUBLE_EQ(m.rho(), 0.0);  // idle
  m.phi_s = 5.0;
  EXPECT_TRUE(std::isinf(m.rho()));  // spent energy, probed nothing
  m.zeta_s = 2.5;
  EXPECT_DOUBLE_EQ(m.rho(), 2.0);
}

// --- SNIP-AT fluid outcomes (Fig. 5/6 numerical results) ---

TEST(SnipAtModel, SmallBudgetCapsAtBudgetDuty) {
  const EpochModel m = roadside_model();
  const auto out = m.snip_at(16.0, 86.4);
  // d0 = min(needed, 0.001): the budget wins; ζ = 8.8, Φ = 86.4, ρ = 9.82.
  EXPECT_NEAR(out.metrics.zeta_s, 8.8, 1e-9);
  EXPECT_NEAR(out.metrics.phi_s, 86.4, 1e-9);
  EXPECT_NEAR(out.metrics.rho(), 86.4 / 8.8, 1e-9);
  EXPECT_FALSE(out.met_target);
}

TEST(SnipAtModel, LargeBudgetMeetsEveryPaperTarget) {
  const EpochModel m = roadside_model();
  for (const double target : {16.0, 24.0, 32.0, 40.0, 48.0, 56.0}) {
    const auto out = m.snip_at(target, 864.0);
    EXPECT_TRUE(out.met_target) << target;
    EXPECT_NEAR(out.metrics.zeta_s, target, 1e-9);
    // ρ_AT = Tepoch/(total contact time x Tcontact/(2 Ton)) = 9.818...
    EXPECT_NEAR(out.metrics.rho(), 86400.0 / 8800.0, 1e-9);
  }
}

TEST(SnipAtModel, UniformDutiesAcrossSlots) {
  const EpochModel m = roadside_model();
  const auto out = m.snip_at(24.0, 864.0);
  for (const double d : out.duties) EXPECT_DOUBLE_EQ(d, out.duties[0]);
}

// --- SNIP-RH fluid outcomes ---

TEST(SnipRhModel, MeetsSmallTargetsAtUnitCostThree) {
  const EpochModel m = roadside_model();
  for (const double target : {16.0, 24.0}) {
    const auto out = m.snip_rh(roadside_mask(), target, 86.4);
    EXPECT_TRUE(out.met_target) << target;
    EXPECT_NEAR(out.metrics.zeta_s, target, 1e-9);
    EXPECT_NEAR(out.metrics.phi_s, 3.0 * target, 1e-9);
  }
}

TEST(SnipRhModel, SmallBudgetCapsAtTwentyEightPointEight) {
  const EpochModel m = roadside_model();
  for (const double target : {32.0, 40.0, 48.0, 56.0}) {
    const auto out = m.snip_rh(roadside_mask(), target, 86.4);
    EXPECT_FALSE(out.met_target) << target;
    EXPECT_NEAR(out.metrics.zeta_s, 28.8, 1e-9) << target;
    EXPECT_NEAR(out.metrics.phi_s, 86.4, 1e-9) << target;
  }
}

TEST(SnipRhModel, LargeBudgetCapsAtRushCapacityHalf) {
  const EpochModel m = roadside_model();
  const auto ok = m.snip_rh(roadside_mask(), 48.0, 864.0);
  EXPECT_TRUE(ok.met_target);
  EXPECT_NEAR(ok.metrics.zeta_s, 48.0, 1e-9);
  EXPECT_NEAR(ok.metrics.phi_s, 144.0, 1e-9);
  // 56 s exceeds the 96 s x Υ(knee)=0.5 rush capacity (Sec. VII-A.1).
  const auto fail = m.snip_rh(roadside_mask(), 56.0, 864.0);
  EXPECT_FALSE(fail.met_target);
  EXPECT_NEAR(fail.metrics.zeta_s, 48.0, 1e-9);
}

TEST(SnipRhModel, StopsMidSlotWhenTargetMet) {
  const EpochModel m = roadside_model();
  // Target 6 s = half of slot 7's knee capacity: only slot 7 runs, half.
  const auto out = m.snip_rh(roadside_mask(), 6.0, 864.0);
  EXPECT_NEAR(out.metrics.zeta_s, 6.0, 1e-9);
  EXPECT_NEAR(out.metrics.phi_s, 18.0, 1e-9);
  EXPECT_GT(out.duties[7], 0.0);
  EXPECT_DOUBLE_EQ(out.duties[8], 0.0);
  EXPECT_DOUBLE_EQ(out.duties[17], 0.0);
}

TEST(SnipRhModel, DutyOverrideIsUsed) {
  const EpochModel m = roadside_model();
  // Half the knee: Υ = 0.25, full rush hours probe 24 s.
  const auto out = m.snip_rh(roadside_mask(), 100.0, 1e9, 0.005);
  EXPECT_NEAR(out.metrics.zeta_s, 24.0, 1e-9);
  EXPECT_NEAR(out.metrics.phi_s, 72.0, 1e-9);
}

TEST(SnipRhModel, MaskSizeMismatchThrows) {
  const EpochModel m = roadside_model();
  EXPECT_THROW(m.snip_rh(std::vector<bool>(23, true), 16.0, 86.4),
               std::invalid_argument);
}

TEST(SnipRhModel, EmptyMaskProbesNothing) {
  const EpochModel m = roadside_model();
  const auto out = m.snip_rh(std::vector<bool>(24, false), 16.0, 86.4);
  EXPECT_DOUBLE_EQ(out.metrics.zeta_s, 0.0);
  EXPECT_DOUBLE_EQ(out.metrics.phi_s, 0.0);
  EXPECT_FALSE(out.met_target);
}

// --- SNIP-OPT fluid outcomes ---

TEST(SnipOptModel, MatchesSnipRhAtSmallBudget) {
  // Fig. 5: "SNIP-RH performs much better than SNIP-AT and its performance
  // is same with SNIP-OPT".
  const EpochModel m = roadside_model();
  for (const double target : {16.0, 24.0, 32.0, 40.0, 48.0, 56.0}) {
    const auto opt = m.snip_opt(target, 86.4);
    const auto rh = m.snip_rh(roadside_mask(), target, 86.4);
    EXPECT_NEAR(opt.metrics.zeta_s, rh.metrics.zeta_s, 1e-6) << target;
    EXPECT_NEAR(opt.metrics.phi_s, rh.metrics.phi_s, 1e-6) << target;
  }
}

TEST(SnipOptModel, LargeBudgetRaisesRushDutyAtFiftySix) {
  // Beyond the rush knee capacity (48 s), the cheapest extra capacity is
  // a higher rush duty, not off-peak probing: d = 0.012, Φ = 172.8 s,
  // ρ = 3.086 — OPT's cost rises above RH's flat 3 exactly where the
  // paper's Fig. 6c shows the OPT/AT curves split from RH.
  const EpochModel m = roadside_model();
  const auto out = m.snip_opt(56.0, 864.0);
  EXPECT_TRUE(out.met_target);
  EXPECT_NEAR(out.metrics.zeta_s, 56.0, 1e-6);
  EXPECT_NEAR(out.metrics.phi_s, 172.8, 1e-3);
  EXPECT_DOUBLE_EQ(out.duties[0], 0.0);
  EXPECT_NEAR(out.duties[7], 0.012, 1e-6);
  EXPECT_GT(out.metrics.rho(), 3.0);
}

TEST(SnipOptModel, NeverWorseThanRh) {
  const EpochModel m = roadside_model();
  for (const double budget : {86.4, 864.0}) {
    for (const double target : {16.0, 32.0, 48.0, 56.0}) {
      const auto opt = m.snip_opt(target, budget);
      const auto rh = m.snip_rh(roadside_mask(), target, budget);
      EXPECT_GE(opt.metrics.zeta_s + 1e-9, rh.metrics.zeta_s)
          << budget << " " << target;
      if (opt.met_target && rh.met_target) {
        EXPECT_LE(opt.metrics.phi_s, rh.metrics.phi_s + 1e-6)
            << budget << " " << target;
      }
    }
  }
}

TEST(EpochModel, Validation) {
  EXPECT_THROW(
      (EpochModel{contact::ArrivalProfile::roadside(), 0.0, SnipParams{}}),
      std::invalid_argument);
  EXPECT_THROW((EpochModel{contact::ArrivalProfile::roadside(), 2.0,
                           SnipParams{.ton_s = 0.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::model
