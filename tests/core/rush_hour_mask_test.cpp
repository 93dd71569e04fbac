#include "snipr/core/rush_hour_mask.hpp"

#include <gtest/gtest.h>

namespace snipr::core {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_h(double hours) {
  return TimePoint::zero() + Duration::seconds(hours * 3600.0);
}

TEST(RushHourMask, FromHoursMarksExactlyThoseSlots) {
  const RushHourMask m = RushHourMask::from_hours({7, 8, 17, 18});
  EXPECT_EQ(m.slot_count(), 24U);
  EXPECT_EQ(m.rush_slot_count(), 4U);
  EXPECT_TRUE(m.is_rush_slot(7));
  EXPECT_TRUE(m.is_rush_slot(18));
  EXPECT_FALSE(m.is_rush_slot(9));
}

TEST(RushHourMask, IsRushBoundariesAreHalfOpen) {
  const RushHourMask m = RushHourMask::from_hours({7, 8});
  EXPECT_FALSE(m.is_rush(at_h(6.999)));
  EXPECT_TRUE(m.is_rush(at_h(7.0)));    // slot start inclusive
  EXPECT_TRUE(m.is_rush(at_h(8.999)));
  EXPECT_FALSE(m.is_rush(at_h(9.0)));   // slot end exclusive
}

TEST(RushHourMask, IsRushWrapsEpochs) {
  const RushHourMask m = RushHourMask::from_hours({7});
  EXPECT_TRUE(m.is_rush(at_h(24 + 7.5)));
  EXPECT_TRUE(m.is_rush(at_h(24 * 13 + 7.0)));
  EXPECT_FALSE(m.is_rush(at_h(24 * 13 + 9.0)));
}

TEST(RushHourMask, NextRushStartFromOutside) {
  const RushHourMask m = RushHourMask::from_hours({7, 17});
  EXPECT_EQ(m.next_rush_start(at_h(0)), at_h(7));
  EXPECT_EQ(m.next_rush_start(at_h(8.0)), at_h(17));
  // After the last rush hour: wraps to the next epoch's morning.
  EXPECT_EQ(m.next_rush_start(at_h(20)), at_h(24 + 7));
}

TEST(RushHourMask, NextRushStartInsideIsNow) {
  const RushHourMask m = RushHourMask::from_hours({7});
  EXPECT_EQ(m.next_rush_start(at_h(7.25)), at_h(7.25));
}

TEST(RushHourMask, NextRushStartAllZeroIsNullopt) {
  const RushHourMask m{Duration::hours(24), 24};
  EXPECT_FALSE(m.next_rush_start(at_h(3)).has_value());
}

TEST(RushHourMask, TopKSelectsLeadingSlots) {
  const std::vector<contact::SlotIndex> order{17, 7, 8, 18, 0, 1};
  const RushHourMask m =
      RushHourMask::top_k(Duration::hours(24), 24, order, 4);
  EXPECT_TRUE(m.is_rush_slot(17));
  EXPECT_TRUE(m.is_rush_slot(7));
  EXPECT_TRUE(m.is_rush_slot(8));
  EXPECT_TRUE(m.is_rush_slot(18));
  EXPECT_FALSE(m.is_rush_slot(0));
  EXPECT_EQ(m.rush_slot_count(), 4U);
}

TEST(RushHourMask, TopKClampsToOrderingSize) {
  const std::vector<contact::SlotIndex> order{3};
  const RushHourMask m =
      RushHourMask::top_k(Duration::hours(24), 24, order, 10);
  EXPECT_EQ(m.rush_slot_count(), 1U);
}

TEST(RushHourMask, SetTogglesSlots) {
  RushHourMask m{Duration::hours(24), 24};
  m.set(5, true);
  EXPECT_TRUE(m.is_rush_slot(5));
  m.set(5, false);
  EXPECT_FALSE(m.is_rush_slot(5));
  EXPECT_THROW(m.set(24, true), std::out_of_range);
}

TEST(RushHourMask, BitsExposeUnderlyingVector) {
  const RushHourMask m = RushHourMask::from_hours({2});
  EXPECT_EQ(m.bits().size(), 24U);
  EXPECT_TRUE(m.bits()[2]);
  EXPECT_FALSE(m.bits()[3]);
}

TEST(RushHourMask, NonHourSlotGranularity) {
  // 48 half-hour slots.
  RushHourMask m{Duration::hours(24), 48};
  m.set(14, true);  // 7:00-7:30
  EXPECT_TRUE(m.is_rush(at_h(7.25)));
  EXPECT_FALSE(m.is_rush(at_h(7.75)));
  EXPECT_EQ(m.slot_length(), Duration::minutes(30));
}

TEST(RushHourMask, Validation) {
  EXPECT_THROW((RushHourMask{Duration::zero(), 24}), std::invalid_argument);
  EXPECT_THROW((RushHourMask{Duration::hours(24), 0}), std::invalid_argument);
  EXPECT_THROW((RushHourMask{Duration::hours(24), 7}), std::invalid_argument);
  EXPECT_THROW(RushHourMask::from_hours({24}), std::invalid_argument);
  EXPECT_THROW(RushHourMask::top_k(Duration::hours(24), 24,
                                   std::vector<contact::SlotIndex>{30}, 1),
               std::invalid_argument);
  const RushHourMask m = RushHourMask::from_hours({1});
  EXPECT_THROW((void)m.is_rush_slot(24), std::out_of_range);
}

}  // namespace
}  // namespace snipr::core
