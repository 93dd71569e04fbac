#include "snipr/contact/profile.hpp"

#include <gtest/gtest.h>

namespace snipr::contact {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_h(double hours) {
  return TimePoint::zero() + Duration::seconds(hours * 3600.0);
}

TEST(ArrivalProfile, RoadsideMatchesPaperScenario) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  EXPECT_EQ(p.epoch(), Duration::hours(24));
  EXPECT_EQ(p.slot_count(), 24U);
  EXPECT_EQ(p.slot_length(), Duration::hours(1));
  for (const SlotIndex rush : {7U, 8U, 17U, 18U}) {
    EXPECT_DOUBLE_EQ(p.mean_interval_s(rush), 300.0);
  }
  EXPECT_DOUBLE_EQ(p.mean_interval_s(0), 1800.0);
  EXPECT_DOUBLE_EQ(p.mean_interval_s(12), 1800.0);
}

TEST(ArrivalProfile, RoadsideExpectedContacts) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  EXPECT_DOUBLE_EQ(p.expected_contacts(7), 12.0);   // 3600/300
  EXPECT_DOUBLE_EQ(p.expected_contacts(0), 2.0);    // 3600/1800
  EXPECT_DOUBLE_EQ(p.expected_contacts_per_epoch(), 88.0);  // 4*12 + 20*2
}

TEST(ArrivalProfile, SlotOfMapsHours) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  EXPECT_EQ(p.slot_of(at_h(0.0)), 0U);
  EXPECT_EQ(p.slot_of(at_h(7.5)), 7U);
  EXPECT_EQ(p.slot_of(at_h(23.999)), 23U);
}

TEST(ArrivalProfile, SlotOfWrapsAcrossEpochs) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  EXPECT_EQ(p.slot_of(at_h(24.0)), 0U);
  EXPECT_EQ(p.slot_of(at_h(24.0 + 17.25)), 17U);
  EXPECT_EQ(p.slot_of(at_h(48.0 + 8.0)), 8U);
}

TEST(ArrivalProfile, SlotStartFloors) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  EXPECT_EQ(p.slot_start(at_h(7.5)), at_h(7.0));
  EXPECT_EQ(p.slot_start(at_h(31.2)), at_h(31.0));
  EXPECT_EQ(p.slot_start(at_h(7.0)), at_h(7.0));
}

TEST(ArrivalProfile, ArrivalRateInverseOfInterval) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  EXPECT_DOUBLE_EQ(p.arrival_rate(7), 1.0 / 300.0);
  EXPECT_DOUBLE_EQ(p.arrival_rate(3), 1.0 / 1800.0);
}

TEST(ArrivalProfile, DeadSlotHasZeroRate) {
  ArrivalProfile p{Duration::hours(24),
                   std::vector<double>{ArrivalProfile::kNoContacts, 600.0}};
  EXPECT_DOUBLE_EQ(p.arrival_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(p.expected_contacts(0), 0.0);
  EXPECT_DOUBLE_EQ(p.expected_contacts(1), 72.0);  // 12h / 600s
}

TEST(ArrivalProfile, SlotsByRatePutsRushFirst) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  const auto order = p.slots_by_rate();
  ASSERT_EQ(order.size(), 24U);
  // The four rush slots come first (stable order: 7, 8, 17, 18).
  EXPECT_EQ(order[0], 7U);
  EXPECT_EQ(order[1], 8U);
  EXPECT_EQ(order[2], 17U);
  EXPECT_EQ(order[3], 18U);
}

TEST(ArrivalProfile, UniformFactory) {
  const ArrivalProfile p =
      ArrivalProfile::uniform(Duration::hours(12), 6, 100.0);
  EXPECT_EQ(p.slot_count(), 6U);
  EXPECT_EQ(p.slot_length(), Duration::hours(2));
  for (SlotIndex s = 0; s < 6; ++s) {
    EXPECT_DOUBLE_EQ(p.mean_interval_s(s), 100.0);
  }
}

TEST(ArrivalProfile, Validation) {
  EXPECT_THROW(
      (ArrivalProfile{Duration::zero(), std::vector<double>{1.0}}),
      std::invalid_argument);
  EXPECT_THROW((ArrivalProfile{Duration::hours(24), std::vector<double>{}}),
               std::invalid_argument);
  EXPECT_THROW(
      (ArrivalProfile{Duration::hours(24), std::vector<double>{-1.0}}),
      std::invalid_argument);
  // 24 h does not divide into 7 equal integer-microsecond slots.
  EXPECT_THROW(
      (ArrivalProfile{Duration::hours(24), std::vector<double>(7, 1.0)}),
      std::invalid_argument);
}

TEST(ArrivalProfile, OutOfRangeSlotThrows) {
  const ArrivalProfile p = ArrivalProfile::roadside();
  EXPECT_THROW((void)p.mean_interval_s(24), std::out_of_range);
}

}  // namespace
}  // namespace snipr::contact
