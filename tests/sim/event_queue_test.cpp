#include "snipr/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace snipr::sim {
namespace {

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }
TimePoint at_us(std::int64_t us) {
  return TimePoint::zero() + Duration::microseconds(us);
}

/// Schedules an event that appends `tag` to `order` when it runs.
void schedule_tagged(EventQueue& q, TimePoint at, std::vector<int>& order,
                     int tag) {
  q.schedule(at, [&order, tag] { order.push_back(tag); });
}

/// Pops and runs everything, returning the tags in run order.
std::vector<int> drain_tags(EventQueue& q, std::vector<int>& order) {
  order.clear();
  while (auto e = q.pop()) e->fn();
  return order;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at_s(3), [&] { order.push_back(3); });
  q.schedule(at_s(1), [&] { order.push_back(1); });
  q.schedule(at_s(2), [&] { order.push_back(2); });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at_s(5), [&order, i] { order.push_back(i); });
  }
  while (auto e = q.pop()) e->fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EarlierScheduleJumpsAheadAndTiesKeepScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  schedule_tagged(q, at_s(10), order, 0);
  schedule_tagged(q, at_s(20), order, 1);
  schedule_tagged(q, at_s(5), order, 2);
  schedule_tagged(q, at_s(10), order, 3);
  EXPECT_EQ(q.next_time(), at_s(5));
  EXPECT_EQ(drain_tags(q, order), (std::vector<int>{2, 0, 3, 1}));
}

TEST(EventQueue, TiesBehindALaterEarlierEventPopFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) schedule_tagged(q, at_s(7), order, i);
  schedule_tagged(q, at_s(3), order, 3);
  EXPECT_EQ(drain_tags(q, order), (std::vector<int>{3, 0, 1, 2}));
}

TEST(EventQueue, SizeCountsPendingEvents) {
  EventQueue q;
  q.schedule(at_s(1), [] {});
  q.schedule(at_s(2), [] {});
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 2U);
  EXPECT_EQ(q.next_time(), at_s(1));
  (void)q.pop();
  EXPECT_EQ(q.size(), 1U);
  EXPECT_EQ(q.next_time(), at_s(2));
  (void)q.pop();
  EXPECT_EQ(q.size(), 0U);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyQueueBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.next_time().has_value());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop_due(TimePoint::max()).has_value());
}

TEST(EventQueue, PoppedCarriesTimestampAndCallback) {
  EventQueue q;
  bool ran = false;
  q.schedule(at_s(4), [&] { ran = true; });
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->at, at_s(4));
  e->fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, PopDueBelowTheHeadLeavesItPending) {
  EventQueue q;
  std::vector<int> order;
  schedule_tagged(q, at_s(5), order, 0);
  schedule_tagged(q, at_s(9), order, 1);
  EXPECT_FALSE(q.pop_due(at_s(4)).has_value());
  EXPECT_EQ(q.size(), 2U);
  EXPECT_EQ(q.next_time(), at_s(5));
  auto e = q.pop_due(at_s(5));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->at, at_s(5));
  e->fn();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_FALSE(q.pop_due(at_s(8)).has_value());
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, PastScheduleWaitsBehindEventsAtTheLatestPop) {
  // An event scheduled before the latest popped timestamp pops after the
  // events pending at that timestamp, before anything later, and reports
  // its requested time.
  EventQueue q;
  std::vector<int> order;
  schedule_tagged(q, at_s(100), order, 0);
  schedule_tagged(q, at_s(10), order, 1);
  const auto popped = q.pop();
  ASSERT_TRUE(popped.has_value());
  ASSERT_EQ(popped->at, at_s(10));
  schedule_tagged(q, at_s(10), order, 2);
  schedule_tagged(q, at_s(10), order, 3);
  schedule_tagged(q, at_s(4), order, 4);
  EXPECT_EQ(q.next_time(), at_s(10));
  std::vector<TimePoint> times;
  while (auto e = q.pop()) {
    times.push_back(e->at);
    e->fn();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 0}));
  EXPECT_EQ(times, (std::vector<TimePoint>{at_s(10), at_s(10), at_s(4),
                                           at_s(100)}));
}

TEST(EventQueue, NegativeAndFarFutureTimestampsOrder) {
  // Negative times sort before zero, and times beyond 2^32 µs (~71.6
  // min) keep their full 64-bit order.
  constexpr std::int64_t kBeyond32 = std::int64_t{1} << 32;
  EventQueue q;
  std::vector<int> order;
  schedule_tagged(q, at_us(3 * kBeyond32), order, 0);
  schedule_tagged(q, at_us(kBeyond32 + 1), order, 1);
  schedule_tagged(q, at_us(0), order, 2);
  schedule_tagged(q, at_us(-kBeyond32), order, 3);
  schedule_tagged(q, at_us(kBeyond32), order, 4);
  schedule_tagged(q, at_us(-1), order, 5);
  schedule_tagged(q, at_us(kBeyond32 + 1), order, 6);
  EXPECT_EQ(q.next_time(), at_us(-kBeyond32));
  EXPECT_EQ(drain_tags(q, order), (std::vector<int>{3, 5, 2, 4, 1, 6, 0}));
}

TEST(EventQueue, PastScheduleAfterANegativePopFilesAtThatPop) {
  EventQueue q;
  std::vector<int> order;
  schedule_tagged(q, at_us(-50), order, 0);
  schedule_tagged(q, at_us(-50), order, 1);
  schedule_tagged(q, at_us(-10), order, 2);
  ASSERT_TRUE(q.pop().has_value());
  schedule_tagged(q, at_us(-80), order, 3);
  EXPECT_EQ(q.next_time(), at_us(-50));
  EXPECT_EQ(drain_tags(q, order), (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.schedule(at_s(100 - i), [] {});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(q.pop().has_value());
    q.schedule(at_s(200 + (i * 37) % 50), [] {});
  }
  EXPECT_EQ(q.size(), 100U);
  TimePoint last = TimePoint::zero();
  std::size_t popped = 0;
  while (auto e = q.pop()) {
    EXPECT_GE(e->at, last);
    last = e->at;
    ++popped;
  }
  EXPECT_EQ(popped, 100U);
}

TEST(EventQueue, LoneTimerPopsAheadOfItsEpochEvent) {
  // One node's steady state: a self-rescheduling wakeup beside a far
  // epoch event.
  EventQueue q;
  std::vector<int> order;
  schedule_tagged(q, at_s(86'400), order, -1);
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 1000; ++i) {
    schedule_tagged(q, now + Duration::seconds(7), order, i);
    auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    e->fn();
    ASSERT_EQ(order.back(), i);
    now = e->at;
  }
  EXPECT_EQ(q.size(), 1U);
  EXPECT_EQ(drain_tags(q, order), (std::vector<int>{-1}));
}

}  // namespace
}  // namespace snipr::sim
