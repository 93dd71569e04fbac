#include "snipr/trace/slot_stats.hpp"

#include <gtest/gtest.h>

#include "snipr/contact/process.hpp"

namespace snipr::trace {
namespace {

using contact::ArrivalProfile;
using contact::Contact;
using sim::Duration;
using sim::TimePoint;

TEST(TraceSlotStats, EstimatedIntervalsFollowPerSlotCounts) {
  const ArrivalProfile layout = ArrivalProfile::roadside();
  std::vector<Contact> contacts{
      {TimePoint::zero() + Duration::hours(7) + Duration::minutes(1),
       Duration::seconds(2)},
      {TimePoint::zero() + Duration::hours(7) + Duration::minutes(30),
       Duration::seconds(4)},
      {TimePoint::zero() + Duration::hours(12), Duration::seconds(2)},
  };
  const ArrivalProfile estimated = TraceSlotStats{contacts, layout}
                                       .estimate_profile();
  EXPECT_DOUBLE_EQ(estimated.mean_interval_s(7), 1800.0);   // 2 in 3600 s
  EXPECT_DOUBLE_EQ(estimated.mean_interval_s(12), 3600.0);  // 1 in 3600 s
  EXPECT_DOUBLE_EQ(estimated.mean_interval_s(3), ArrivalProfile::kNoContacts);
}

TEST(TraceSlotStats, EpochInference) {
  const ArrivalProfile layout = ArrivalProfile::roadside();
  std::vector<Contact> contacts{
      {TimePoint::zero() + Duration::hours(5), Duration::seconds(2)},
      {TimePoint::zero() + Duration::hours(29), Duration::seconds(2)},
  };
  const TraceSlotStats stats{contacts, layout};
  EXPECT_EQ(stats.epochs_observed(), 2);
  // 2 contacts over 2 epochs: one per epoch.
  EXPECT_DOUBLE_EQ(stats.estimate_profile().mean_interval_s(5), 3600.0);
}

TEST(TraceSlotStats, EmptyTraceIsOneEpoch) {
  const TraceSlotStats stats{{}, ArrivalProfile::roadside()};
  EXPECT_EQ(stats.epochs_observed(), 1);
  EXPECT_EQ(stats.estimate_profile().expected_contacts_per_epoch(), 0.0);
}

TEST(TraceSlotStats, SlotsByCountRanksRushHoursFirst) {
  const ArrivalProfile layout = ArrivalProfile::roadside();
  contact::IntervalContactProcess process{
      layout, std::make_unique<sim::FixedDistribution>(2.0)};
  sim::Rng rng{1};
  const auto contacts =
      contact::materialize(process, Duration::hours(24) * 7, rng);
  const TraceSlotStats stats{contacts, layout};
  const auto order = stats.slots_by_count();
  // The first four slots by count are exactly the rush hours.
  std::vector<contact::SlotIndex> top{order.begin(), order.begin() + 4};
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top, (std::vector<contact::SlotIndex>{7, 8, 17, 18}));
}

TEST(TraceSlotStats, EstimateProfileRecoversRates) {
  const ArrivalProfile layout = ArrivalProfile::roadside();
  contact::IntervalContactProcess process{
      layout, std::make_unique<sim::FixedDistribution>(2.0)};
  sim::Rng rng{2};
  const auto contacts =
      contact::materialize(process, Duration::hours(24) * 10, rng);
  const TraceSlotStats stats{contacts, layout};
  const ArrivalProfile estimated = stats.estimate_profile();
  EXPECT_NEAR(estimated.mean_interval_s(7), 300.0, 30.0);
  EXPECT_NEAR(estimated.mean_interval_s(3), 1800.0, 180.0);
}

}  // namespace
}  // namespace snipr::trace
