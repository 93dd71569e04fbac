#include "snipr/model/snip_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace snipr::model {
namespace {

constexpr double kTon = 0.02;  // the calibrated default (DESIGN.md)

TEST(ExpectedProbedTime, LongCycleBranch) {
  // Tcycle >= l: E = l^2 / (2 Tcycle).
  EXPECT_DOUBLE_EQ(expected_probed_time(2.0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(expected_probed_time(2.0, 2.0), 1.0);  // boundary
}

TEST(ExpectedProbedTime, ShortCycleBranch) {
  // Tcycle < l: E = l − Tcycle/2.
  EXPECT_DOUBLE_EQ(expected_probed_time(2.0, 1.0), 1.5);
  EXPECT_DOUBLE_EQ(expected_probed_time(10.0, 0.5), 9.75);
}

TEST(ExpectedProbedTime, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(expected_probed_time(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(expected_probed_time(-1.0, 1.0), 0.0);
  EXPECT_THROW((void)expected_probed_time(1.0, 0.0), std::invalid_argument);
}

TEST(UpsilonFixed, LinearBranchMatchesEquationOne) {
  // Υ = Tcontact·d/(2·Ton) when Tcycle >= Tcontact.
  EXPECT_DOUBLE_EQ(upsilon_fixed(0.001, 2.0, kTon), 2.0 * 0.001 / (2 * kTon));
  EXPECT_DOUBLE_EQ(upsilon_fixed(0.005, 2.0, kTon), 0.25);
}

TEST(UpsilonFixed, SaturatingBranchMatchesEquationOne) {
  // Υ = 1 − Ton/(2·d·Tcontact) when Tcycle < Tcontact.
  EXPECT_DOUBLE_EQ(upsilon_fixed(0.02, 2.0, kTon), 1.0 - 0.02 / (2 * 0.02 * 2));
  EXPECT_DOUBLE_EQ(upsilon_fixed(1.0, 2.0, kTon), 1.0 - 0.02 / 4.0);
}

TEST(UpsilonFixed, ContinuousAtKneeWithValueHalf) {
  const double knee = knee_duty(2.0, kTon);
  EXPECT_DOUBLE_EQ(knee, 0.01);
  EXPECT_DOUBLE_EQ(upsilon_fixed(knee, 2.0, kTon), 0.5);
  EXPECT_NEAR(upsilon_fixed(knee - 1e-9, 2.0, kTon), 0.5, 1e-6);
  EXPECT_NEAR(upsilon_fixed(knee + 1e-9, 2.0, kTon), 0.5, 1e-6);
}

TEST(UpsilonFixed, ZeroAndClampedDuty) {
  EXPECT_DOUBLE_EQ(upsilon_fixed(0.0, 2.0, kTon), 0.0);
  EXPECT_DOUBLE_EQ(upsilon_fixed(-0.5, 2.0, kTon), 0.0);
  EXPECT_DOUBLE_EQ(upsilon_fixed(2.0, 2.0, kTon),
                   upsilon_fixed(1.0, 2.0, kTon));
}

TEST(UpsilonFixed, KneeBeyondOneKeepsLinearBranch) {
  // Ton = 3 s > Tcontact = 2 s: knee clamps to 1, Υ stays linear.
  EXPECT_DOUBLE_EQ(knee_duty(2.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(upsilon_fixed(1.0, 2.0, 3.0), 2.0 / (2 * 3.0));
}

TEST(UpsilonFixed, Validation) {
  EXPECT_THROW((void)upsilon_fixed(0.5, 0.0, kTon), std::invalid_argument);
  EXPECT_THROW((void)upsilon_fixed(0.5, 2.0, 0.0), std::invalid_argument);
}

TEST(UpsilonExponential, LinearRegimeDoublesFixedValue) {
  // For exponential lengths E[l²] = 2µ², so in the linear regime Ῡ is twice
  // the fixed-length value at the same mean.
  const double d = 0.0005;
  const double fixed_u = upsilon_fixed(d, 2.0, kTon);
  const double exp_u = upsilon_exponential(d, 2.0, kTon);
  EXPECT_NEAR(exp_u / fixed_u, 2.0, 0.01);
}

TEST(UpsilonExponential, MatchesMonteCarlo) {
  sim::Rng rng{11};
  const sim::ExponentialDistribution dist{2.0};
  for (const double d : {0.001, 0.01, 0.1}) {
    const double analytic = upsilon_exponential(d, 2.0, kTon);
    const double mc = upsilon_monte_carlo(d, dist, kTon, 400000, rng);
    EXPECT_NEAR(mc, analytic, 0.02) << "duty " << d;
  }
}

TEST(UpsilonExponential, MonotoneInDuty) {
  double prev = 0.0;
  for (double d = 0.0005; d <= 1.0; d *= 2) {
    const double u = upsilon_exponential(d, 2.0, kTon);
    EXPECT_GT(u, prev);
    prev = u;
  }
}

TEST(UpsilonExponential, SlopeDropsAtKnee) {
  // Footnote 1: no hard knee, but an obvious slope change at Tcycle = µ.
  const double knee = kTon / 2.0;
  const double below = upsilon_exponential(knee, 2.0, kTon) -
                       upsilon_exponential(knee * 0.9, 2.0, kTon);
  const double above = upsilon_exponential(knee * 1.1 * 10, 2.0, kTon) -
                       upsilon_exponential(knee * 10, 2.0, kTon);
  EXPECT_GT(below, above);
}

TEST(UpsilonMonteCarlo, FixedDistributionMatchesClosedForm) {
  sim::Rng rng{13};
  const sim::FixedDistribution dist{2.0};
  for (const double d : {0.001, 0.01, 0.05}) {
    EXPECT_NEAR(upsilon_monte_carlo(d, dist, kTon, 1000, rng),
                upsilon_fixed(d, 2.0, kTon), 1e-12);
  }
}

TEST(UpsilonMonteCarlo, Validation) {
  sim::Rng rng{1};
  const sim::FixedDistribution dist{2.0};
  EXPECT_THROW((void)upsilon_monte_carlo(0.5, dist, kTon, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::model
