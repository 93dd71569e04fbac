#include "snipr/energy/battery.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace snipr::energy {
namespace {

TEST(Battery, TwoAaCapacity) {
  // 2600 mAh at 3 V, 70% usable: 2.6 Ah * 3600 s * 3 V * 0.7.
  EXPECT_DOUBLE_EQ(Battery::two_aa().capacity_j(), 19656.0);
}

TEST(Battery, LifetimeYears) {
  // 365.25 epochs of one day = exactly one year.
  const Battery b{365.25};
  EXPECT_NEAR(b.lifetime_years(1.0, sim::Duration::hours(24)), 1.0, 1e-12);
  // Half-day epochs at the same draw per epoch last half as long.
  EXPECT_NEAR(b.lifetime_years(1.0, sim::Duration::hours(12)), 0.5, 1e-12);
}

TEST(Battery, ZeroDrawLastsForever) {
  const Battery b{100.0};
  EXPECT_TRUE(std::isinf(b.lifetime_years(0.0, sim::Duration::hours(24))));
}

TEST(Battery, PaperScenarioLifetimes) {
  // Probing at the small budget (86.4 radio-on s/day at ~56 mW) costs
  // ~4.9 J/day: two AA cells last 10+ years of probing alone. SNIP-RH at
  // target 16 (Φ ≈ 48 s/day, ~2.7 J) stretches that further.
  const double at_joules = 86.4 * 0.0564;
  const double rh_joules = 48.0 * 0.0564;
  const Battery b = Battery::two_aa();
  const double at_years = b.lifetime_years(at_joules, sim::Duration::hours(24));
  const double rh_years = b.lifetime_years(rh_joules, sim::Duration::hours(24));
  EXPECT_GT(at_years, 5.0);
  EXPECT_NEAR(at_years / rh_years, 48.0 / 86.4, 1e-9);
}

TEST(Battery, Validation) {
  EXPECT_THROW(Battery{0.0}, std::invalid_argument);
  const Battery b{10.0};
  EXPECT_THROW((void)b.lifetime_years(-1.0, sim::Duration::hours(24)),
               std::invalid_argument);
  EXPECT_THROW((void)b.lifetime_years(1.0, sim::Duration::zero()),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::energy
