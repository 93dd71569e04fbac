#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "snipr/model/snip_model.hpp"

/// Parameterised invariant sweeps over the SNIP model (eq. 1).

namespace snipr::model {
namespace {

/// (tcontact_s, ton_s) grid covering short/long contacts and radios.
class UpsilonInvariants
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(UpsilonInvariants, BoundedBetweenZeroAndOne) {
  const auto [tc, ton] = GetParam();
  for (double d = 0.0; d <= 1.0; d += 0.01) {
    const double u = upsilon_fixed(d, tc, ton);
    EXPECT_GE(u, 0.0) << "d=" << d;
    EXPECT_LE(u, 1.0) << "d=" << d;
  }
}

TEST_P(UpsilonInvariants, NonDecreasingInDuty) {
  const auto [tc, ton] = GetParam();
  double prev = -1.0;
  for (double d = 0.001; d <= 1.0; d += 0.001) {
    const double u = upsilon_fixed(d, tc, ton);
    EXPECT_GE(u + 1e-12, prev) << "d=" << d;
    prev = u;
  }
}

TEST_P(UpsilonInvariants, ContinuousEverywhere) {
  const auto [tc, ton] = GetParam();
  for (double d = 0.002; d < 1.0; d += 0.001) {
    const double left = upsilon_fixed(d - 1e-7, tc, ton);
    const double right = upsilon_fixed(d + 1e-7, tc, ton);
    EXPECT_NEAR(left, right, 1e-4) << "d=" << d;
  }
}

TEST_P(UpsilonInvariants, KneeValueIsHalfWhenReachable) {
  const auto [tc, ton] = GetParam();
  const double knee = knee_duty(tc, ton);
  if (knee < 1.0) {
    EXPECT_NEAR(upsilon_fixed(knee, tc, ton), 0.5, 1e-12);
  }
}

TEST_P(UpsilonInvariants, ExponentialUpsilonBoundedAndMonotone) {
  const auto [tc, ton] = GetParam();
  double prev = -1.0;
  for (double d = 0.001; d <= 1.0; d += 0.01) {
    const double u = upsilon_exponential(d, tc, ton);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_GE(u + 1e-12, prev);
    prev = u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UpsilonInvariants,
    ::testing::Values(std::make_tuple(2.0, 0.02),    // the paper's scenario
                      std::make_tuple(0.5, 0.02),    // short contacts
                      std::make_tuple(20.0, 0.02),   // long contacts
                      std::make_tuple(2.0, 0.005),   // fast radio
                      std::make_tuple(2.0, 0.1),     // slow radio
                      std::make_tuple(1.0, 2.0)));   // Ton > Tcontact

/// Linearity of capacity below the knee: ζ(αd) == αζ(d).
class LinearRegime : public ::testing::TestWithParam<double> {};

TEST_P(LinearRegime, CapacityScalesLinearly) {
  const double tc = GetParam();
  const double ton = 0.02;
  const double knee = knee_duty(tc, ton);
  const double d = knee / 4.0;
  const double u1 = upsilon_fixed(d, tc, ton);
  const double u2 = upsilon_fixed(2.0 * d, tc, ton);
  EXPECT_NEAR(u2, 2.0 * u1, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Lengths, LinearRegime,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0, 60.0));

}  // namespace
}  // namespace snipr::model
