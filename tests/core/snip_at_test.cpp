#include "snipr/core/snip_at.hpp"

#include <gtest/gtest.h>

namespace snipr::core {
namespace {

using node::SensorContext;
using sim::Duration;
using sim::TimePoint;

SensorContext context_with_budget(Duration used, Duration limit) {
  SensorContext ctx;
  ctx.now = TimePoint::zero() + Duration::hours(1);
  ctx.budget_used = used;
  ctx.budget_limit = limit;
  return ctx;
}

TEST(SnipAt, ProbesAtConfiguredCycle) {
  SnipAt at{0.001, Duration::milliseconds(20)};
  const auto d =
      at.on_wakeup(context_with_budget(Duration::zero(), Duration::max()));
  EXPECT_TRUE(d.probe);
  // Tcycle = Ton/d = 20 s.
  EXPECT_EQ(d.next_wakeup, Duration::seconds(20));
  EXPECT_EQ(at.cycle(), Duration::seconds(20));
}

TEST(SnipAt, FullDutyMeansBackToBackWakeups) {
  SnipAt at{1.0, Duration::milliseconds(20)};
  const auto d =
      at.on_wakeup(context_with_budget(Duration::zero(), Duration::max()));
  EXPECT_TRUE(d.probe);
  EXPECT_EQ(d.next_wakeup, Duration::milliseconds(20));
}

TEST(SnipAt, StopsWhenBudgetCannotAffordNextWakeup) {
  SnipAt at{0.01, Duration::milliseconds(20)};
  const Duration limit = Duration::seconds(1);
  // 990 ms used: 20 ms still fits.
  auto d =
      at.on_wakeup(context_with_budget(Duration::milliseconds(980), limit));
  EXPECT_TRUE(d.probe);
  // 990 ms used: the next 20 ms wakeup would overrun.
  d = at.on_wakeup(context_with_budget(Duration::milliseconds(990), limit));
  EXPECT_FALSE(d.probe);
  EXPECT_EQ(d.next_wakeup, Duration::minutes(10));  // the idle re-check
}

TEST(SnipAt, NameIsStable) {
  SnipAt at{0.5, Duration::milliseconds(20)};
  EXPECT_EQ(at.name(), "SNIP-AT");
}

TEST(SnipAt, Validation) {
  EXPECT_THROW(SnipAt(0.0, Duration::milliseconds(20)),
               std::invalid_argument);
  EXPECT_THROW(SnipAt(1.5, Duration::milliseconds(20)),
               std::invalid_argument);
  EXPECT_THROW(SnipAt(0.5, Duration::zero()), std::invalid_argument);
}

}  // namespace
}  // namespace snipr::core
