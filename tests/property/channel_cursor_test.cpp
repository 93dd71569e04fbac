/// Property: the Channel's monotone-cursor queries are observationally
/// identical to the reference binary-search lookups of
/// support/schedule_lookup.hpp, for any query
/// sequence — forward-running (the simulation hot path the cursor
/// accelerates), backward jumps (which step the cursor back), the
/// probe's own pattern (a beacon at t, the reply one airtime later, then
/// the re-read at t), and exact boundary hits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "snipr/contact/schedule.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/sim/rng.hpp"
#include "support/schedule_lookup.hpp"

namespace snipr::radio {
namespace {

using contact::Contact;
using contact::ContactSchedule;
using sim::Duration;
using sim::Rng;
using sim::TimePoint;

/// Random non-overlapping schedule: gaps and lengths in microseconds,
/// occasional back-to-back (touching) contacts to hit the arrival ==
/// previous-departure boundary, and — with `zero_length_rate` — contacts
/// of zero length, whose departure equals their arrival (the case that
/// once made the cursor skip an arrival the binary search reports).
ContactSchedule random_schedule(Rng& rng, std::size_t contacts,
                                double zero_length_rate = 0.0) {
  std::vector<Contact> list;
  list.reserve(contacts);
  TimePoint cursor = TimePoint::zero();
  for (std::size_t i = 0; i < contacts; ++i) {
    const bool touching = rng.bernoulli(0.2);
    if (!touching) {
      cursor += Duration::microseconds(
          1 + static_cast<std::int64_t>(rng.uniform_int(5'000'000)));
    }
    const auto length =
        rng.bernoulli(zero_length_rate)
            ? Duration::zero()
            : Duration::microseconds(
                  1 + static_cast<std::int64_t>(rng.uniform_int(3'000'000)));
    list.push_back(Contact{cursor, length});
    cursor += length;
  }
  return ContactSchedule{std::move(list)};
}

/// Query instants biased to interesting places: contact edges, interiors
/// and gaps, visited mostly forward with occasional backward jumps.
std::vector<TimePoint> random_queries(Rng& rng, const ContactSchedule& sched,
                                      std::size_t count) {
  const TimePoint end = sched.empty()
                            ? TimePoint::zero() + Duration::seconds(10)
                            : sched.contacts().back().departure() +
                                  Duration::seconds(2);
  std::vector<TimePoint> queries;
  queries.reserve(count);
  TimePoint t = TimePoint::zero();
  for (std::size_t i = 0; i < count; ++i) {
    const double coin = rng.uniform();
    if (coin < 0.15 && !sched.empty()) {
      // Jump (often backward) to a contact edge.
      const Contact& c = sched.contacts()[rng.uniform_int(sched.size())];
      t = rng.bernoulli(0.5) ? c.arrival : c.departure();
      if (rng.bernoulli(0.3)) t += Duration::microseconds(1);
      if (rng.bernoulli(0.3) && t > TimePoint::zero()) {
        t -= Duration::microseconds(1);
      }
    } else if (coin < 0.25) {
      // Backward jump by a random span.
      const auto back = Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(4'000'000)));
      t = t - back < TimePoint::zero() ? TimePoint::zero() : t - back;
    } else {
      // Forward step, the dominant simulation pattern.
      t += Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(2'000'000)));
    }
    if (t > end) t = TimePoint::zero();  // wrap to keep queries in range
    queries.push_back(t);
  }
  return queries;
}

TEST(ChannelCursorProperty, MatchesBinarySearchOnRandomQuerySequences) {
  Rng rng{20260729};
  for (int round = 0; round < 50; ++round) {
    const std::size_t contacts = rng.uniform_int(40);
    // Odd rounds mix in zero-length and touching-heavy schedules: every
    // boundary where the cursor's departure-based advance and the binary
    // search's arrival-based lookup could disagree.
    const ContactSchedule schedule =
        random_schedule(rng, contacts, round % 2 == 1 ? 0.3 : 0.0);
    Channel channel{schedule, LinkParams{}};

    for (const TimePoint t : random_queries(rng, schedule, 400)) {
      // A probe's reply query one airtime ahead, so the queries below at
      // t step the cursor back, as the post-probe re-read does.
      if (rng.bernoulli(0.3)) {
        (void)channel.active_contact(t + Duration::microseconds(1000));
      }
      const auto expected = testing::active_at(schedule.contacts(), t);
      const auto actual = channel.active_contact(t);
      ASSERT_EQ(expected.has_value(), actual.has_value())
          << "active_contact mismatch at t=" << t << " round " << round;
      if (expected.has_value()) {
        ASSERT_EQ(expected->arrival, actual->arrival);
        ASSERT_EQ(expected->length, actual->length);
      }

      const std::vector<Contact>& contacts = schedule.contacts();
      const auto first_at_or_after =
          std::lower_bound(contacts.begin(), contacts.end(), t,
                           [](const Contact& c, TimePoint at) {
                             return c.arrival < at;
                           }) -
          contacts.begin();
      ASSERT_EQ(channel.next_arrival_index(t),
                static_cast<std::size_t>(first_at_or_after))
          << "next_arrival_index mismatch at t=" << t << " round " << round;

      // Loss-free delivery is a pure predicate over the schedule.
      const auto airtime = Duration::microseconds(1000);
      const bool expected_deliver = expected.has_value() &&
                                    t + airtime <= expected->departure();
      ASSERT_EQ(channel.try_deliver(t, airtime), expected_deliver)
          << "try_deliver mismatch at t=" << t << " round " << round;
    }
  }
}

TEST(ChannelCursorProperty, ZeroLengthContactAtTheQueryInstantIsReported) {
  // Regression: a zero-length contact arriving exactly at t has
  // departure() == t, so the monotone cursor (which discards departed
  // contacts) used to step past it and report the *next* arrival, while
  // a binary search for the first arrival >= t correctly returns it.
  const TimePoint blip = TimePoint::zero() + Duration::seconds(5);
  const ContactSchedule schedule{{Contact{blip, Duration::zero()},
                                  Contact{blip + Duration::seconds(3),
                                          Duration::seconds(1)}}};
  Channel channel{schedule, LinkParams{}};
  // Covers nothing, but advances the cursor past the zero-length contact.
  EXPECT_FALSE(channel.active_contact(blip).has_value());
  EXPECT_EQ(channel.next_arrival_index(blip), 0U);
}

TEST(ChannelCursorProperty, StrictlyForwardSweepMatchesBinarySearch) {
  Rng rng{42};
  const ContactSchedule schedule = random_schedule(rng, 64);
  Channel channel{schedule, LinkParams{}};
  TimePoint t = TimePoint::zero();
  const TimePoint end =
      schedule.contacts().back().departure() + Duration::seconds(1);
  while (t <= end) {
    const auto expected = testing::active_at(schedule.contacts(), t);
    const auto actual = channel.active_contact(t);
    ASSERT_EQ(expected.has_value(), actual.has_value()) << "t=" << t;
    if (expected.has_value()) {
      ASSERT_EQ(expected->arrival, actual->arrival);
    }
    t += Duration::microseconds(
        1 + static_cast<std::int64_t>(rng.uniform_int(200'000)));
  }
}

}  // namespace
}  // namespace snipr::radio
