#include "snipr/contact/process.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace snipr::contact {
namespace {

using sim::Duration;
using sim::TimePoint;

std::unique_ptr<sim::Distribution> fixed(double v) {
  return std::make_unique<sim::FixedDistribution>(v);
}

TEST(IntervalContactProcess, RequiresLengthDistribution) {
  EXPECT_THROW(
      IntervalContactProcess(ArrivalProfile::roadside(), nullptr),
      std::invalid_argument);
}

TEST(IntervalContactProcess, DeterministicRoadsideCountsMatchPaper) {
  IntervalContactProcess p{ArrivalProfile::roadside(), fixed(2.0)};
  sim::Rng rng{1};
  const auto contacts = materialize(p, Duration::hours(24) * 2, rng);
  // Steady state: 4 rush slots x 12 + 20 off slots x 2 = 88 contacts/day.
  // Day 1 misses slot 0's boundary arrival (nothing precedes t=0): 87.
  EXPECT_EQ(contacts.size(), 87U + 88U);
  const TimePoint day2 = TimePoint::zero() + Duration::hours(24);
  for (std::size_t s = 0; s < 24; ++s) {
    const bool rush = s == 7 || s == 8 || s == 17 || s == 18;
    const TimePoint lo = day2 + Duration::hours(static_cast<std::int64_t>(s));
    const auto n = std::count_if(
        contacts.begin(), contacts.end(), [&](const Contact& c) {
          return c.arrival >= lo && c.arrival < lo + Duration::hours(1);
        });
    EXPECT_EQ(n, rush ? 12 : 2) << "slot " << s;
  }
}

TEST(IntervalContactProcess, DeterministicSpacingInsideSlot) {
  IntervalContactProcess p{ArrivalProfile::roadside(), fixed(2.0)};
  sim::Rng rng{1};
  const auto contacts = materialize(p, Duration::hours(24), rng);
  // The off-peak renewal crossing the 7:00 boundary lands exactly on the
  // slot start; from there rush-hour contacts arrive every 300 s.
  const TimePoint slot7 = TimePoint::zero() + Duration::hours(7);
  std::vector<Contact> rush;
  for (const Contact& c : contacts) {
    if (c.arrival >= slot7 && c.arrival < slot7 + Duration::hours(1)) {
      rush.push_back(c);
    }
  }
  ASSERT_EQ(rush.size(), 12U);
  EXPECT_EQ(rush[0].arrival, slot7);
  EXPECT_EQ(rush[1].arrival, slot7 + Duration::seconds(300));
  EXPECT_EQ(rush[11].arrival, slot7 + Duration::seconds(300) * 11);
  EXPECT_EQ(rush[0].length, Duration::seconds(2));
}

TEST(IntervalContactProcess, RenewalRestartsAtSlotBoundary) {
  // One live slot then a dead slot: nothing may arrive inside the dead one,
  // and the next live slot starts fresh.
  ArrivalProfile profile{Duration::hours(4),
                         std::vector<double>{600.0,
                                             ArrivalProfile::kNoContacts,
                                             600.0,
                                             ArrivalProfile::kNoContacts}};
  IntervalContactProcess p{profile, fixed(1.0)};
  sim::Rng rng{1};
  const auto contacts = materialize(p, Duration::hours(4), rng);
  ASSERT_FALSE(contacts.empty());
  for (const Contact& c : contacts) {
    const SlotIndex s = profile.slot_of(c.arrival);
    EXPECT_TRUE(s == 0 || s == 2) << "contact in dead slot " << s;
  }
  // Slot 2 restarts: its first arrival is slot start + 600 s.
  const TimePoint slot2 = TimePoint::zero() + Duration::hours(2);
  const auto after = std::find_if(
      contacts.begin(), contacts.end(),
      [slot2](const Contact& c) { return c.arrival >= slot2; });
  ASSERT_NE(after, contacts.end());
  EXPECT_EQ(after->arrival, slot2 + Duration::seconds(600));
}

TEST(IntervalContactProcess, AllDeadProfileYieldsNothing) {
  ArrivalProfile dead{Duration::hours(24),
                      std::vector<double>(24, ArrivalProfile::kNoContacts)};
  IntervalContactProcess p{dead, fixed(2.0)};
  sim::Rng rng{1};
  EXPECT_FALSE(p.next(rng).has_value());
}

TEST(IntervalContactProcess, JitteredCountsApproximateDeterministic) {
  IntervalContactProcess p{ArrivalProfile::roadside(), fixed(2.0),
                           IntervalJitter::kNormalTenth};
  sim::Rng rng{42};
  const auto contacts = materialize(p, Duration::hours(24) * 14, rng);
  // Renewal with fresh start loses ~half an interval per slot occurrence;
  // expect within 10% of the deterministic 88/day over two weeks.
  const double per_day = static_cast<double>(contacts.size()) / 14.0;
  EXPECT_NEAR(per_day, 88.0, 8.8);
}

TEST(IntervalContactProcess, ContactsNeverOverlap) {
  IntervalContactProcess p{ArrivalProfile::roadside(), fixed(2.0),
                           IntervalJitter::kNormalTenth};
  sim::Rng rng{7};
  const auto contacts = materialize(p, Duration::hours(24) * 3, rng);
  for (std::size_t i = 1; i < contacts.size(); ++i) {
    EXPECT_GE(contacts[i].arrival, contacts[i - 1].departure());
  }
}

TEST(Materialize, HonoursHorizon) {
  IntervalContactProcess p{ArrivalProfile::roadside(), fixed(2.0)};
  IntervalContactProcess fresh{ArrivalProfile::roadside(), fixed(2.0)};
  sim::Rng rng{1};
  const auto one_day = materialize(p, Duration::hours(24), rng);
  const auto two_days = materialize(fresh, Duration::hours(48), rng);
  EXPECT_EQ(one_day.size(), 87U);           // start-up transient, see above
  EXPECT_EQ(two_days.size(), 87U + 88U);    // steady state afterwards
  for (const Contact& c : one_day) {
    EXPECT_LT(c.arrival, TimePoint::zero() + Duration::hours(24));
  }
}

}  // namespace
}  // namespace snipr::contact
