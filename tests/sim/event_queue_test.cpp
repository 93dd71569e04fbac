#include "snipr/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace snipr::sim {

/// White-box hook: forcing a slot to the last pre-wrap generation makes
/// the 2^32-retirement wrap testable without four billion cycles.
struct EventQueueTestPeer {
  static void set_slot_generation(EventQueue& q, std::uint32_t slot,
                                  std::uint32_t generation) {
    q.slots_[slot].generation = generation;
  }
  static std::uint32_t slot_generation(const EventQueue& q,
                                       std::uint32_t slot) {
    return q.slots_[slot].generation;
  }
  /// Id of the event in the front slot; kInvalidEventId when it is empty.
  static EventId front(const EventQueue& q) {
    if (q.front_ == EventQueue::kNil) return kInvalidEventId;
    return EventQueue::pack(q.slots_[q.front_].generation, q.front_);
  }
};

namespace {

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

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

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(at_s(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(at_s(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(at_s(1), [] {});
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, id);
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(at_s(1), [] {});
  q.schedule(at_s(2), [] {});
  EXPECT_EQ(q.next_time(), at_s(1));
  EXPECT_TRUE(q.cancel(early));
  EXPECT_EQ(q.next_time(), at_s(2));
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  const EventId a = q.schedule(at_s(1), [] {});
  q.schedule(at_s(2), [] {});
  EXPECT_EQ(q.size(), 2U);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1U);
  (void)q.pop();
  EXPECT_EQ(q.size(), 0U);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyQueueBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.next_time().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, PoppedCarriesTimestampAndId) {
  EventQueue q;
  const EventId id = q.schedule(at_s(4), [] {});
  const auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->at, at_s(4));
  EXPECT_EQ(e->id, id);
}

TEST(EventQueue, CancelHeavyWorkloadKeepsHeapBounded) {
  // Regression: cancel() used to leave its heap entry behind forever
  // (only the head was lazily dropped), so a schedule/cancel loop — the
  // steady state of any retimed-wakeup workload — grew the heap without
  // bound while size() reported almost empty. With periodic compaction
  // the heap must stay within a constant factor of the live count.
  EventQueue q;
  constexpr int kEvents = 1'000'000;
  std::size_t max_heap = 0;
  EventId previous = kInvalidEventId;
  for (int i = 0; i < kEvents; ++i) {
    // Never-decreasing timestamps, like a forward-running simulation.
    const EventId id = q.schedule(at_s(static_cast<double>(i)), [] {});
    if (previous != kInvalidEventId) {
      EXPECT_TRUE(q.cancel(previous));
    }
    previous = id;
    max_heap = std::max(max_heap, q.heap_size());
  }
  // At most one live event throughout; 1M tombstones must NOT pile up.
  EXPECT_LE(max_heap, 128U);
  EXPECT_EQ(q.size(), 1U);
  // empty() and the heap agree: cancelling the survivor leaves a queue
  // that also *pops* as empty, tombstones notwithstanding.
  EXPECT_TRUE(q.cancel(previous));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.next_time().has_value());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.heap_size(), 0U);
}

TEST(EventQueue, CompactionPreservesOrderAndLiveEvents) {
  // Interleave enough cancels to force several compactions, then check
  // the survivors still pop in exact (time, FIFO) order.
  EventQueue q;
  std::vector<EventId> victims;
  std::vector<int> expected;
  for (int i = 0; i < 5000; ++i) {
    const double t = static_cast<double>((i * 37) % 1000);
    const EventId id = q.schedule(at_s(t), [] {});
    if (i % 10 == 0) {
      expected.push_back(i);  // kept
      (void)id;
    } else {
      victims.push_back(id);
    }
  }
  for (const EventId id : victims) EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), expected.size());
  EXPECT_LE(q.heap_size(), std::max<std::size_t>(2 * q.size(), 64));
  TimePoint last = TimePoint::zero();
  std::size_t popped = 0;
  while (auto e = q.pop()) {
    EXPECT_GE(e->at, last);
    last = e->at;
    ++popped;
  }
  EXPECT_EQ(popped, expected.size());
}

TEST(EventQueue, StaleCancelNeverTouchesTheSlotsNewerEvent) {
  // Slot indices recycle through the free list; the generation half of
  // the id must keep a stale handle from cancelling the slot's new owner.
  EventQueue q;
  const EventId old_id = q.schedule(at_s(1), [] {});
  EXPECT_TRUE(q.cancel(old_id));
  bool ran = false;
  const EventId new_id = q.schedule(at_s(2), [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));  // stale generation
  EXPECT_EQ(q.size(), 1U);
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, new_id);
  e->fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, PoppedIdStaysDeadWhenSlotIsReused) {
  EventQueue q;
  const EventId popped_id = q.schedule(at_s(1), [] {});
  ASSERT_TRUE(q.pop().has_value());
  // The freed slot is taken by the next schedule; the popped id must not
  // resurrect (cancel) it.
  const EventId reused = q.schedule(at_s(2), [] {});
  EXPECT_NE(popped_id, reused);
  EXPECT_FALSE(q.cancel(popped_id));
  EXPECT_EQ(q.size(), 1U);
  EXPECT_TRUE(q.cancel(reused));
}

TEST(EventQueue, IdsStayUniqueAcrossManySlotGenerations) {
  // One slot recycled thousands of times: every generation's id is
  // distinct and every stale id stays permanently dead.
  EventQueue q;
  const EventId first = q.schedule(at_s(1), [] {});
  EXPECT_TRUE(q.cancel(first));
  EventId previous = first;
  for (int i = 0; i < 5000; ++i) {
    const EventId id = q.schedule(at_s(1), [] {});
    EXPECT_NE(id, previous);
    EXPECT_NE(id, first);
    EXPECT_FALSE(q.cancel(first));
    EXPECT_FALSE(q.cancel(previous));
    ASSERT_TRUE(q.cancel(id));
    previous = id;
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, GenerationWrapSkipsTheInvalidSentinel) {
  // Regression: generations wrap at 2^32, and generation 0 is reserved —
  // every packed id keeps a non-zero high half, so a recycled slot can
  // never mint an id equal to kInvalidEventId (or one cancel() would
  // reject as invalid). Force slot 0 to the last generation and push it
  // through a full retire cycle on both retirement paths.
  EventQueue q;
  const EventId first = q.schedule(at_s(1), [] {});  // slot 0, generation 1
  ASSERT_TRUE(q.cancel(first));

  EventQueueTestPeer::set_slot_generation(q, 0, 0xFFFFFFFFu);
  const EventId last = q.schedule(at_s(1), [] {});
  EXPECT_EQ(last >> 32, 0xFFFFFFFFull);
  ASSERT_TRUE(q.cancel(last));  // retirement wraps: 2^32-1 -> skip 0 -> 1
  EXPECT_EQ(EventQueueTestPeer::slot_generation(q, 0), 1U);

  const EventId reborn = q.schedule(at_s(2), [] {});
  EXPECT_NE(reborn, kInvalidEventId);
  EXPECT_NE(reborn >> 32, 0ULL);
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(last));  // pre-wrap handle is permanently dead
  EXPECT_TRUE(q.cancel(reborn));

  // Same wrap through the pop path.
  EventQueueTestPeer::set_slot_generation(q, 0, 0xFFFFFFFFu);
  const EventId popped = q.schedule(at_s(3), [] {});
  EXPECT_EQ(popped >> 32, 0xFFFFFFFFull);
  const auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, popped);
  EXPECT_EQ(EventQueueTestPeer::slot_generation(q, 0), 1U);
  EXPECT_NE(q.schedule(at_s(4), [] {}), kInvalidEventId);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(at_s(100 - i), [] {}));
  }
  // Cancel every other event.
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 50U);
  TimePoint last = TimePoint::zero();
  std::size_t popped = 0;
  while (auto e = q.pop()) {
    EXPECT_GE(e->at, last);
    last = e->at;
    ++popped;
  }
  EXPECT_EQ(popped, 50U);
}

// --- Front slot: one event held outside the wheel -----------------------

/// Run one event through the front slot and one through the wheel, so
/// the wheel's clock sits at 1 s: later events within the wheel horizon
/// are then filed in wheel buckets rather than the overflow heap, whose
/// (time, seq) order would hide a FIFO slip.
void advance_wheel(EventQueue& q) {
  q.schedule(at_s(0), [] {});
  q.schedule(at_s(1), [] {});
  ASSERT_TRUE(q.pop().has_value());
  ASSERT_TRUE(q.pop().has_value());
}

/// Pops everything, returning the ids in pop order.
std::vector<EventId> drain_ids(EventQueue& q) {
  std::vector<EventId> ids;
  while (auto e = q.pop()) ids.push_back(e->id);
  return ids;
}

TEST(EventQueueFrontSlot, StrictlyEarlierScheduleDemotesTheFrontEvent) {
  EventQueue q;
  advance_wheel(q);
  const EventId a = q.schedule(at_s(10), [] {});
  EXPECT_EQ(EventQueueTestPeer::front(q), a);
  const EventId b = q.schedule(at_s(20), [] {});
  EXPECT_EQ(EventQueueTestPeer::front(q), a) << "a later event stays out";
  const EventId c = q.schedule(at_s(5), [] {});
  EXPECT_EQ(EventQueueTestPeer::front(q), c);
  // The demoted event keeps its place: a later tie at its timestamp
  // still pops after it.
  const EventId d = q.schedule(at_s(10), [] {});
  EXPECT_EQ(q.next_time(), at_s(5));
  EXPECT_EQ(drain_ids(q), (std::vector<EventId>{c, a, d, b}));
}

TEST(EventQueueFrontSlot, TieAtTheFrontTimestampPopsFifo) {
  EventQueue q;
  advance_wheel(q);
  const EventId a = q.schedule(at_s(7), [] {});
  ASSERT_EQ(EventQueueTestPeer::front(q), a);
  const EventId b = q.schedule(at_s(7), [] {});
  const EventId c = q.schedule(at_s(7), [] {});
  EXPECT_NE(EventQueueTestPeer::front(q), b);
  EXPECT_NE(EventQueueTestPeer::front(q), c);
  // A strictly earlier event after the ties takes the front; the three
  // ties still pop in schedule order behind it.
  const EventId e = q.schedule(at_s(3), [] {});
  EXPECT_EQ(EventQueueTestPeer::front(q), e);
  EXPECT_EQ(drain_ids(q), (std::vector<EventId>{e, a, b, c}));
}

TEST(EventQueueFrontSlot, CancellingTheFrontEventExposesTheWheelHead) {
  EventQueue q;
  advance_wheel(q);
  const EventId a = q.schedule(at_s(2), [] {});
  const EventId b = q.schedule(at_s(3), [] {});
  const EventId c = q.schedule(at_s(4), [] {});
  ASSERT_EQ(EventQueueTestPeer::front(q), a);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(EventQueueTestPeer::front(q), kInvalidEventId);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 2U);
  EXPECT_EQ(q.next_time(), at_s(3));
  EXPECT_EQ(drain_ids(q), (std::vector<EventId>{b, c}));
}

TEST(EventQueueFrontSlot, PopDueBelowTheFrontEventLeavesItPending) {
  EventQueue q;
  const EventId a = q.schedule(at_s(5), [] {});
  q.schedule(at_s(9), [] {});
  ASSERT_EQ(EventQueueTestPeer::front(q), a);
  EXPECT_FALSE(q.pop_due(at_s(4)).has_value());
  EXPECT_EQ(EventQueueTestPeer::front(q), a);
  EXPECT_EQ(q.size(), 2U);
  EXPECT_EQ(q.next_time(), at_s(5));
  const auto e = q.pop_due(at_s(5));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, a);
  EXPECT_FALSE(q.pop_due(at_s(8)).has_value());
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueueFrontSlot, ObserversCountTheFrontEvent) {
  EventQueue q;
  const EventId a = q.schedule(at_s(1), [] {});
  ASSERT_EQ(EventQueueTestPeer::front(q), a);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1U);
  EXPECT_EQ(q.heap_size(), 1U);
  EXPECT_EQ(q.next_time(), at_s(1));
  q.schedule(at_s(2), [] {});
  EXPECT_EQ(q.size(), 2U);
  EXPECT_EQ(q.heap_size(), 2U);
  EXPECT_EQ(q.next_time(), at_s(1));
  (void)q.pop();
  EXPECT_EQ(q.size(), 1U);
  EXPECT_EQ(q.heap_size(), 1U);
  EXPECT_EQ(q.next_time(), at_s(2));
}

TEST(EventQueueFrontSlot, PastScheduleWaitsBehindEventsAtTheLatestPop) {
  // The header's past-schedule contract after a front pop, which leaves
  // the wheel's own clock behind: an event scheduled before the latest
  // popped timestamp pops after the events pending at that timestamp,
  // before anything later, and reports its requested time.
  EventQueue q;
  advance_wheel(q);
  const EventId late = q.schedule(at_s(100), [] {});
  const EventId first = q.schedule(at_s(10), [] {});
  ASSERT_EQ(EventQueueTestPeer::front(q), first);
  const auto popped = q.pop();
  ASSERT_TRUE(popped.has_value());
  ASSERT_EQ(popped->id, first);
  const EventId b = q.schedule(at_s(10), [] {});
  const EventId c = q.schedule(at_s(10), [] {});
  const EventId past = q.schedule(at_s(4), [] {});
  EXPECT_NE(EventQueueTestPeer::front(q), past);
  std::vector<EventId> order;
  std::vector<TimePoint> times;
  while (auto e = q.pop()) {
    order.push_back(e->id);
    times.push_back(e->at);
  }
  EXPECT_EQ(order, (std::vector<EventId>{b, c, past, late}));
  EXPECT_EQ(times, (std::vector<TimePoint>{at_s(10), at_s(10), at_s(4),
                                           at_s(100)}));
}

TEST(EventQueueFrontSlot, LoneTimerNeverLeavesTheFrontSlot) {
  // One node's steady state: a self-rescheduling wakeup beside a far
  // epoch event. Every wakeup is admitted to the front and popped from
  // it.
  EventQueue q;
  const EventId epoch = q.schedule(at_s(86'400), [] {});
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 1000; ++i) {
    const EventId wake = q.schedule(now + Duration::seconds(7), [] {});
    ASSERT_EQ(EventQueueTestPeer::front(q), wake) << "wakeup " << i;
    const auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    ASSERT_EQ(e->id, wake);
    now = e->at;
  }
  EXPECT_EQ(q.size(), 1U);
  EXPECT_EQ(drain_ids(q), (std::vector<EventId>{epoch}));
}

}  // namespace
}  // namespace snipr::sim
