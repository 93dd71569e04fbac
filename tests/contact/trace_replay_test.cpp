#include "snipr/contact/trace_replay.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "snipr/contact/schedule.hpp"

namespace snipr::contact {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

Contact c(double arrival_s, double length_s) {
  return Contact{at_s(arrival_s), Duration::seconds(length_s)};
}

std::vector<Contact> drain(TraceReplayProcess& p, std::size_t n,
                           sim::Rng& rng) {
  std::vector<Contact> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto next = p.next(rng);
    if (!next.has_value()) break;
    out.push_back(*next);
  }
  return out;
}

TEST(TraceReplay, OneShotReplaysExactly) {
  const std::vector<Contact> base{c(10, 2), c(50, 3)};
  TraceReplayProcess p{base, {}};
  sim::Rng rng{1};
  const auto out = drain(p, 10, rng);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0], base[0]);
  EXPECT_EQ(out[1], base[1]);
  EXPECT_FALSE(p.next(rng).has_value());  // exhausted, stays exhausted
}

TEST(TraceReplay, OneShotOffsetDelays) {
  TraceReplayConfig config;
  config.offset = Duration::seconds(100);
  TraceReplayProcess p{{c(10, 2)}, config};
  sim::Rng rng{1};
  const auto out = drain(p, 2, rng);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].arrival, at_s(110));
}

TEST(TraceReplay, TilingRepeatsAtThePeriod) {
  TraceReplayConfig config;
  config.period = Duration::seconds(100);
  TraceReplayProcess p{{c(10, 2), c(50, 3)}, config};
  EXPECT_EQ(p.span(), Duration::seconds(100));
  sim::Rng rng{1};
  const auto out = drain(p, 5, rng);
  ASSERT_EQ(out.size(), 5U);
  EXPECT_EQ(out[2].arrival, at_s(110));  // repetition 1
  EXPECT_EQ(out[3].arrival, at_s(150));
  EXPECT_EQ(out[4].arrival, at_s(210));  // repetition 2
}

TEST(TraceReplay, SpanRoundsUpToCoverTheTrace) {
  // A 2.5-period trace tiles every 3 periods, preserving slot phase.
  TraceReplayConfig config;
  config.period = Duration::seconds(100);
  TraceReplayProcess p{{c(10, 2), c(240, 5)}, config};
  EXPECT_EQ(p.span(), Duration::seconds(300));
  sim::Rng rng{1};
  const auto out = drain(p, 3, rng);
  ASSERT_EQ(out.size(), 3U);
  EXPECT_EQ(out[2].arrival, at_s(310));
}

TEST(TraceReplay, TilingOffsetRotatesWithinTheSpan) {
  TraceReplayConfig config;
  config.period = Duration::seconds(100);
  config.offset = Duration::seconds(60);
  TraceReplayProcess p{{c(10, 2), c(50, 3)}, config};
  sim::Rng rng{1};
  const auto out = drain(p, 2, rng);
  ASSERT_EQ(out.size(), 2U);
  // 50 + 60 = 110 -> wraps to 10; 10 + 60 = 70.
  EXPECT_EQ(out[0].arrival, at_s(10));
  EXPECT_EQ(out[0].length, Duration::seconds(3));
  EXPECT_EQ(out[1].arrival, at_s(70));
}

TEST(TraceReplay, RotationClipsContactsWrappingPastTheSpanEnd) {
  TraceReplayConfig config;
  config.period = Duration::seconds(100);
  config.offset = Duration::seconds(95);
  TraceReplayProcess p{{c(0, 10)}, config};
  sim::Rng rng{1};
  const auto out = drain(p, 1, rng);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].arrival, at_s(95));
  EXPECT_EQ(out[0].length, Duration::seconds(5));  // clipped at the span
}

TEST(TraceReplay, JitteredReplayStaysSortedAndDisjoint) {
  std::vector<Contact> base;
  for (int i = 0; i < 50; ++i) base.push_back(c(10.0 * i, 2.0));
  TraceReplayConfig config;
  config.period = Duration::seconds(500);
  config.jitter_stddev_s = 30.0;  // huge vs the 10 s gaps: collisions
  TraceReplayProcess p{base, config};
  sim::Rng rng{7};
  const auto out = drain(p, 400, rng);
  ASSERT_EQ(out.size(), 400U);
  // The invariant every ContactSchedule consumer relies on.
  EXPECT_NO_THROW(ContactSchedule{out});
}

TEST(TraceReplay, JitterIsDeterministicPerRngStream) {
  const std::vector<Contact> base{c(10, 2), c(50, 3), c(90, 1)};
  TraceReplayConfig config;
  config.period = Duration::seconds(100);
  config.jitter_stddev_s = 5.0;
  TraceReplayProcess a{base, config};
  TraceReplayProcess b{base, config};
  sim::Rng rng_a{42};
  sim::Rng rng_b{42};
  const auto out_a = drain(a, 20, rng_a);
  const auto out_b = drain(b, 20, rng_b);
  EXPECT_EQ(out_a, out_b);
}

TEST(TraceReplay, EmptyTraceIsAnEmptyStream) {
  TraceReplayConfig config;
  config.period = Duration::seconds(100);
  TraceReplayProcess p{{}, config};
  sim::Rng rng{1};
  EXPECT_FALSE(p.next(rng).has_value());
}

TEST(TraceReplay, Validation) {
  EXPECT_THROW((TraceReplayProcess{{c(10, 0)}, {}}), std::invalid_argument);
  EXPECT_THROW((TraceReplayProcess{{c(50, 2), c(10, 2)}, {}}),
               std::invalid_argument);
  TraceReplayConfig negative_jitter;
  negative_jitter.jitter_stddev_s = -1.0;
  EXPECT_THROW((TraceReplayProcess{{c(10, 2)}, negative_jitter}),
               std::invalid_argument);
  TraceReplayConfig negative_period;
  negative_period.period = Duration::seconds(-5);
  EXPECT_THROW((TraceReplayProcess{{c(10, 2)}, negative_period}),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::contact
