#include "snipr/contact/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "snipr/sim/rng.hpp"
#include "support/schedule_lookup.hpp"

namespace snipr::contact {
namespace {

using sim::Duration;
using sim::TimePoint;
using testing::active_at;
using testing::next_arrival_at_or_after;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

std::vector<Contact> three_contacts() {
  return {
      {at_s(10), Duration::seconds(2)},
      {at_s(50), Duration::seconds(4)},
      {at_s(100), Duration::seconds(2)},
  };
}

TEST(ContactSchedule, RejectsUnsorted) {
  std::vector<Contact> bad{{at_s(50), Duration::seconds(2)},
                           {at_s(10), Duration::seconds(2)}};
  EXPECT_THROW(ContactSchedule{bad}, std::invalid_argument);
}

TEST(ContactSchedule, RejectsOverlap) {
  std::vector<Contact> bad{{at_s(10), Duration::seconds(5)},
                           {at_s(12), Duration::seconds(2)}};
  EXPECT_THROW(ContactSchedule{bad}, std::invalid_argument);
}

bool by_arrival(const Contact& a, const Contact& b) {
  return a.arrival < b.arrival;
}

/// The constructor's two rules checked one after the other, as two
/// passes: any disorder is reported first, then any overlap.
std::optional<std::string> two_pass_verdict(const std::vector<Contact>& c) {
  if (!std::is_sorted(c.begin(), c.end(), by_arrival)) {
    return "ContactSchedule: contacts must be sorted";
  }
  for (std::size_t i = 1; i < c.size(); ++i) {
    if (c[i].arrival < c[i - 1].departure()) {
      return "ContactSchedule: contacts overlap";
    }
  }
  return std::nullopt;
}

TEST(ContactSchedule, OnePassCheckRejectsWhatTwoPassesReject) {
  // Short lists on a coarse grid, so disorder, overlap, both at once (in
  // either order along the list) and touching contacts are all common.
  sim::Rng rng{5};
  for (int round = 0; round < 5000; ++round) {
    std::vector<Contact> contacts;
    for (std::uint64_t n = rng.uniform_int(6); n > 0; --n) {
      const auto arrival_s = static_cast<double>(rng.uniform_int(8));
      const auto length_s = static_cast<double>(rng.uniform_int(3));
      contacts.push_back({at_s(arrival_s), Duration::seconds(length_s)});
    }
    if (rng.bernoulli(0.5)) {
      std::sort(contacts.begin(), contacts.end(), by_arrival);
    }
    const std::optional<std::string> expected = two_pass_verdict(contacts);
    std::optional<std::string> got;
    try {
      (void)ContactSchedule{contacts};
    } catch (const std::invalid_argument& e) {
      got = e.what();
    }
    ASSERT_EQ(got, expected) << "round " << round;
  }
}

TEST(ContactSchedule, BackToBackContactsAllowed) {
  std::vector<Contact> ok{{at_s(10), Duration::seconds(5)},
                          {at_s(15), Duration::seconds(2)}};
  EXPECT_NO_THROW(ContactSchedule{ok});
}

TEST(ContactSchedule, ZeroLengthContactBoundaries) {
  // A zero-length contact occupies [t, t): it may sit exactly on a
  // neighbour's departure (touching) but not strictly inside another
  // contact — the same `arrival < previous departure` rule as any other
  // contact.
  std::vector<Contact> touching{{at_s(10), Duration::seconds(5)},
                                {at_s(15), Duration::zero()},
                                {at_s(15), Duration::seconds(2)}};
  EXPECT_NO_THROW(ContactSchedule{touching});

  std::vector<Contact> inside{{at_s(10), Duration::seconds(5)},
                              {at_s(12), Duration::zero()}};
  EXPECT_THROW(ContactSchedule{inside}, std::invalid_argument);

  // Zero-length contacts cover no instant but still count as arrivals
  // (in the reference lookups the channel cursor is held to).
  const ContactSchedule s{{{at_s(10), Duration::zero()}}};
  EXPECT_FALSE(active_at(s.contacts(), at_s(10)).has_value());
  ASSERT_TRUE(next_arrival_at_or_after(s.contacts(), at_s(10)).has_value());
  EXPECT_EQ(next_arrival_at_or_after(s.contacts(), at_s(10))->arrival,
            at_s(10));
}

TEST(ContactScheduleReference, ActiveAtInsideAndOutside) {
  const std::vector<Contact> c = three_contacts();
  EXPECT_FALSE(active_at(c, at_s(9.999)).has_value());
  ASSERT_TRUE(active_at(c, at_s(10)).has_value());  // arrival inclusive
  EXPECT_TRUE(active_at(c, at_s(11.5)).has_value());
  EXPECT_FALSE(active_at(c, at_s(12)).has_value());  // departure exclusive
  EXPECT_TRUE(active_at(c, at_s(53.9)).has_value());
  EXPECT_FALSE(active_at(c, at_s(200)).has_value());
}

TEST(ContactScheduleReference, NextArrival) {
  const std::vector<Contact> c = three_contacts();
  EXPECT_EQ(next_arrival_at_or_after(c, at_s(0))->arrival, at_s(10));
  EXPECT_EQ(next_arrival_at_or_after(c, at_s(10))->arrival, at_s(10));
  EXPECT_EQ(next_arrival_at_or_after(c, at_s(10.5))->arrival, at_s(50));
  EXPECT_FALSE(next_arrival_at_or_after(c, at_s(101)).has_value());
}

TEST(ContactSchedule, EmptySchedule) {
  const ContactSchedule s{{}};
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(active_at(s.contacts(), at_s(1)).has_value());
  EXPECT_FALSE(next_arrival_at_or_after(s.contacts(), at_s(0)).has_value());
}

TEST(ContactSchedule, ShiftedMatchesCheckedConstruction) {
  // Random sorted, non-overlapping contacts, back-to-back ones included,
  // moved forward, backward and not at all.
  sim::Rng rng{31};
  std::vector<Contact> contacts;
  TimePoint t = at_s(1000);
  for (int k = 0; k < 200; ++k) {
    t += Duration::microseconds(static_cast<std::int64_t>(
        rng.uniform_int(3) * rng.uniform_int(1'000'000)));  // 0: back to back
    contacts.push_back({t, Duration::microseconds(static_cast<std::int64_t>(
                               1 + rng.uniform_int(500'000)))});
    t = contacts.back().departure();
  }
  const ContactSchedule base{contacts};
  for (const Duration by :
       {Duration::zero(), Duration::microseconds(1), Duration::seconds(37.25),
        -Duration::seconds(999), Duration::hours(24 * 365)}) {
    std::vector<Contact> moved = contacts;
    for (Contact& c : moved) c.arrival += by;
    const ContactSchedule want{std::move(moved)};
    const ContactSchedule got = base.shifted(by);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(got.contacts()[j].arrival, want.contacts()[j].arrival) << j;
      ASSERT_EQ(got.contacts()[j].length, want.contacts()[j].length) << j;
    }
  }
  EXPECT_TRUE(ContactSchedule{{}}.shifted(Duration::max()).empty());

  // The guard: the last departure may reach the clock's end, not pass it;
  // the first arrival likewise its start.
  const ContactSchedule high{{{at_s(10), Duration::seconds(5)}}};
  const Duration room = TimePoint::max() - at_s(15);
  EXPECT_EQ(high.shifted(room).contacts().front().departure(),
            TimePoint::max());
  EXPECT_THROW((void)high.shifted(room + Duration::microseconds(1)),
               std::invalid_argument);
  const ContactSchedule low{{{at_s(-10), Duration::seconds(5)}}};
  const Duration floor =
      Duration::microseconds(std::numeric_limits<std::int64_t>::min()) +
      Duration::seconds(10);
  EXPECT_EQ(low.shifted(floor).contacts().front().arrival.count(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)low.shifted(floor - Duration::microseconds(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::contact
