/// Property: the heap `sim::EventQueue` is observationally identical to
/// the ordered-map reference model (tests/support/reference_event_queue.hpp)
/// over random forward-running schedule/pop interleavings — the full
/// surface a Simulator can drive (Simulator::schedule_at rejects past
/// times). Every schedule carries its sequence number in its callback,
/// so each pair of pops must run the same event, not merely one at the
/// same time. A second regime drives the queue the way one lone fleet
/// node does.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "snipr/sim/event_queue.hpp"
#include "snipr/sim/rng.hpp"
#include "support/reference_event_queue.hpp"

namespace snipr::sim {
namespace {

using testing::ReferenceEventQueue;

/// Delays mixing ties (FIFO), sub-millisecond to multi-second spacing,
/// and hops beyond 2^32 µs (~71.6 min) ahead.
Duration random_delay(Rng& rng) {
  switch (rng.uniform_int(6)) {
    case 0:
      return Duration::zero();
    case 1:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(256)));
    case 2:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(65'536)));
    case 3:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(16'777'216)));
    case 4:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(4'294'967'296)));
    default:
      return Duration::hours(1 + static_cast<std::int64_t>(
                                     rng.uniform_int(100)));
  }
}

/// Both queues side by side, each event tagged with its schedule
/// sequence number.
struct Pair {
  EventQueue heap;
  ReferenceEventQueue reference;
  std::uint64_t next_tag{0};
  std::uint64_t heap_ran{0};
  std::uint64_t reference_ran{0};

  void schedule(TimePoint at) {
    const std::uint64_t tag = next_tag++;
    heap.schedule(at, [this, tag] { heap_ran = tag; });
    reference.schedule(at, [this, tag] { reference_ran = tag; });
  }

  /// Pops from both (up to `limit`), runs both events and checks they
  /// are the same one. Returns the popped timestamp.
  std::optional<TimePoint> pop_due(TimePoint limit, int round) {
    auto a = heap.pop_due(limit);
    auto b = reference.pop_due(limit);
    EXPECT_EQ(a.has_value(), b.has_value()) << "round " << round;
    if (!a.has_value() || !b.has_value()) return std::nullopt;
    EXPECT_EQ(a->at, b->at) << "round " << round;
    a->fn();
    b->fn();
    EXPECT_EQ(heap_ran, reference_ran) << "round " << round;
    return a->at;
  }

  /// Drains both queues completely: the tail must pop in lockstep too.
  void expect_same_drain(int round) {
    while (pop_due(TimePoint::max(), round).has_value()) {
    }
    EXPECT_TRUE(heap.empty()) << "round " << round;
    EXPECT_TRUE(reference.empty()) << "round " << round;
  }
};

TEST(EventQueueEquivalenceProperty, MatchesReferenceModel) {
  Rng rng{20260807};
  for (int round = 0; round < 40; ++round) {
    Pair q;
    TimePoint now = TimePoint::zero();

    const std::size_t ops = 200 + rng.uniform_int(2000);
    for (std::size_t op = 0; op < ops; ++op) {
      const double coin = rng.uniform();
      if (coin < 0.55) {
        // Forward-running schedule; a repeated delay of zero exercises
        // the FIFO tie-break.
        q.schedule(now + random_delay(rng));
      } else if (coin < 0.8) {
        // Half the pops are bounded, often below the head.
        const TimePoint limit = coin < 0.675 ? TimePoint::max()
                                             : now + random_delay(rng);
        if (const auto at = q.pop_due(limit, round)) now = *at;
      } else if (coin < 0.92) {
        ASSERT_EQ(q.heap.next_time(), q.reference.next_time())
            << "round " << round;
      } else {
        ASSERT_EQ(q.heap.size(), q.reference.size()) << "round " << round;
        ASSERT_EQ(q.heap.empty(), q.reference.empty()) << "round " << round;
      }
      if (::testing::Test::HasFailure()) return;
    }
    q.expect_same_drain(round);
  }
}

TEST(EventQueueEquivalenceProperty, LoneNodeRegimeMatchesReference) {
  // One node alone in its simulator: a self-rescheduling wakeup beside a
  // far epoch event and the odd transfer completion, 1-3 pending at a
  // time. Most schedules land strictly before every pending event; the
  // rest tie with the earliest pending event or land anywhere.
  Rng rng{20261017};
  for (int round = 0; round < 40; ++round) {
    Pair q;
    TimePoint now = TimePoint::zero();

    const std::size_t ops = 500 + rng.uniform_int(3000);
    for (std::size_t op = 0; op < ops; ++op) {
      const std::size_t pending = q.reference.size();
      const double coin = rng.uniform();
      if (pending == 0 || (pending < 3 && coin < 0.55)) {
        const std::optional<TimePoint> next = q.reference.next_time();
        const double kind = rng.uniform();
        TimePoint at = now + random_delay(rng);
        if (next.has_value() && kind < 0.75 && *next > now) {
          at = now + Duration::microseconds(static_cast<std::int64_t>(
                         rng.uniform_int(
                             static_cast<std::uint64_t>((*next - now).count()))));
        } else if (next.has_value() && kind < 0.85) {
          at = *next;
        }
        q.schedule(at);
      } else if (pending == 3 || coin < 0.9) {
        if (const auto at = q.pop_due(TimePoint::max(), round)) now = *at;
      } else {
        ASSERT_EQ(q.heap.next_time(), q.reference.next_time())
            << "round " << round;
        ASSERT_EQ(q.heap.size(), q.reference.size()) << "round " << round;
      }
      if (::testing::Test::HasFailure()) return;
    }
    q.expect_same_drain(round);
  }
}

}  // namespace
}  // namespace snipr::sim
