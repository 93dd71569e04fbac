#include "snipr/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace snipr::sim {
namespace {

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

/// Run until the event queue drains; returns the events executed.
std::size_t run_all(Simulator& s) {
  return s.step(std::numeric_limits<std::size_t>::max());
}

TEST(Simulator, StartsAtOrigin) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::zero());
  EXPECT_EQ(s.pending(), 0U);
}

TEST(Simulator, RunExecutesInOrderAndAdvancesClock) {
  Simulator s;
  std::vector<double> fire_times;
  s.schedule_at(at_s(2), [&] { fire_times.push_back(s.now().to_seconds()); });
  s.schedule_at(at_s(1), [&] { fire_times.push_back(s.now().to_seconds()); });
  const std::size_t n = run_all(s);
  EXPECT_EQ(n, 2U);
  EXPECT_EQ(fire_times, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(s.now(), at_s(2));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  s.schedule_at(at_s(5), [&] {
    s.schedule_after(Duration::seconds(3),
                     [&] { EXPECT_EQ(s.now(), at_s(8)); });
  });
  run_all(s);
  EXPECT_EQ(s.now(), at_s(8));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_at(at_s(10), [] {});
  run_all(s);
  EXPECT_THROW(s.schedule_at(at_s(5), [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_after(Duration::seconds(-1), [] {}),
               std::logic_error);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndIdlesForward) {
  Simulator s;
  int fired = 0;
  s.schedule_at(at_s(1), [&] { ++fired; });
  s.schedule_at(at_s(10), [&] { ++fired; });
  const std::size_t n = s.run_until(at_s(5));
  EXPECT_EQ(n, 1U);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), at_s(5));  // idle advance
  EXPECT_EQ(s.pending(), 1U);
  s.run_until(at_s(10));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesEventsAtBoundary) {
  Simulator s;
  bool ran = false;
  s.schedule_at(at_s(5), [&] { ran = true; });
  s.run_until(at_s(5));
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilBackwardsThrows) {
  Simulator s;
  s.run_until(at_s(5));
  EXPECT_THROW(s.run_until(at_s(1)), std::logic_error);
}

TEST(Simulator, StepLimitsExecution) {
  Simulator s;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) s.schedule_at(at_s(i), [&] { ++fired; });
  EXPECT_EQ(s.step(2), 2U);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.pending(), 3U);
}

TEST(Simulator, EventsCanScheduleRecursively) {
  Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) s.schedule_after(Duration::seconds(1), tick);
  };
  s.schedule_at(at_s(1), tick);
  run_all(s);
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.now(), at_s(100));
}

TEST(Simulator, SeededRngIsDeterministic) {
  Simulator a{99};
  Simulator b{99};
  EXPECT_EQ(a.rng().next(), b.rng().next());
}

TEST(Simulator, TwoWeekClockIsExact) {
  Simulator s;
  s.run_until(TimePoint::zero() + Duration::hours(24) * 14);
  EXPECT_EQ(s.now().count(), 14LL * 86400 * 1'000'000);
}


TEST(Simulator, FastForwardIsClosedOutsideACallback) {
  Simulator s;
  s.schedule_at(at_s(5), [] {});
  EXPECT_EQ(s.fast_forward_limit(), s.now());
  EXPECT_EQ(s.fast_forward_budget(), 0U);
  EXPECT_THROW(s.fast_forward(at_s(1), 1), std::logic_error);
  run_all(s);
  EXPECT_EQ(s.fast_forward_budget(), 0U);
}

TEST(Simulator, FastForwardStopsShortOfThePendingEventAndTheRunBound) {
  Simulator s;
  TimePoint limit;
  std::size_t budget = 0;
  s.schedule_at(at_s(50), [] {});
  s.schedule_at(at_s(10), [&] {
    limit = s.fast_forward_limit();
    budget = s.fast_forward_budget();
  });
  s.run_until(at_s(30));
  // The run bound (30 s) is nearer than the pending event (50 s).
  EXPECT_EQ(limit, at_s(30));
  EXPECT_GT(budget, 1'000'000U);
  s.schedule_at(at_s(40), [&] { limit = s.fast_forward_limit(); });
  s.run_until(at_s(100));
  // A pending event wins a tie with anything scheduled later.
  EXPECT_EQ(limit, at_s(50) - Duration::microseconds(1));
}

TEST(Simulator, FastForwardedEventsCountAsExecuted) {
  // A 1 s tick that resolves its next four ticks itself whenever it may.
  Simulator s;
  std::vector<double> fired;
  struct Tick {
    Simulator* s;
    std::vector<double>* fired;
    void operator()() const {
      fired->push_back(s->now().to_seconds());
      const std::size_t k = std::min<std::size_t>(4, s->fast_forward_budget());
      const TimePoint last = s->now() + Duration::seconds(1) *
                                            static_cast<std::int64_t>(k);
      if (k > 0 && last <= s->fast_forward_limit()) {
        s->fast_forward(last, k);
      }
      s->schedule_after(Duration::seconds(1), *this);
    }
  };
  s.schedule_at(at_s(0), Tick{&s, &fired});
  // Ticks at 0..20 s: 21 events, of which only 0, 5, 10, 15 and 20 ran.
  EXPECT_EQ(s.run_until(at_s(20)), 21U);
  EXPECT_EQ(fired, (std::vector<double>{0, 5, 10, 15, 20}));
  // step(n) still executes exactly n events, skipped ones included: the
  // budget leaves room for two after the tick at 25 s.
  EXPECT_EQ(s.step(3), 3U);
  EXPECT_EQ(s.now(), at_s(23));
  EXPECT_EQ(fired.back(), 21.0);
}

TEST(Simulator, FastForwardRefusesToPassItsBounds) {
  Simulator s;
  s.schedule_at(at_s(10), [] {});
  s.schedule_at(at_s(1), [&] {
    // Onto the pending event, back in time, or past the event budget.
    EXPECT_THROW(s.fast_forward(at_s(10), 1), std::logic_error);
    EXPECT_THROW(s.fast_forward(at_s(0.5), 1), std::logic_error);
    EXPECT_THROW(s.fast_forward(at_s(2), 2), std::logic_error);
    s.fast_forward(at_s(2), 1);
  });
  EXPECT_EQ(s.step(2), 2U);
  EXPECT_EQ(s.now(), at_s(2));
  EXPECT_EQ(s.pending(), 1U);
}

}  // namespace
}  // namespace snipr::sim
