/// Property: the timing-wheel `sim::EventQueue` is observationally
/// identical to the binary-heap reference model it replaced
/// (tests/support/reference_event_queue.hpp), over random
/// forward-running schedule/cancel/pop interleavings — the full surface
/// a Simulator can drive (Simulator::schedule_at rejects past times).
/// Equivalence is exact: both implementations retire slots in the same
/// order, so even the EventId handles must match bit for bit. A second
/// regime drives the queue the way one lone fleet node does, so the
/// equivalence covers the wheel's front slot too.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "snipr/sim/event_queue.hpp"
#include "snipr/sim/rng.hpp"
#include "support/reference_event_queue.hpp"

namespace snipr::sim {
namespace {

using testing::ReferenceEventQueue;

/// Delays mixing every wheel regime: ties (FIFO), the current 256-µs
/// level-0 span, each higher wheel level, and the beyond-horizon
/// overflow heap (> 2^32 µs ≈ 71.6 min ahead).
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

/// Drain both queues completely: the tail must pop in lockstep too.
void expect_same_drain(EventQueue& wheel, ReferenceEventQueue& reference,
                       int round) {
  for (;;) {
    auto a = wheel.pop();
    auto b = reference.pop();
    ASSERT_EQ(a.has_value(), b.has_value()) << "drain, round " << round;
    if (!a.has_value()) break;
    ASSERT_EQ(a->at, b->at) << "drain, round " << round;
    ASSERT_EQ(a->id, b->id) << "drain, round " << round;
  }
  ASSERT_TRUE(wheel.empty());
  ASSERT_EQ(wheel.heap_size(), 0U);
}

TEST(EventQueueEquivalenceProperty, MatchesBinaryHeapReferenceModel) {
  Rng rng{20260807};
  for (int round = 0; round < 40; ++round) {
    EventQueue wheel;
    ReferenceEventQueue reference;
    std::vector<EventId> outstanding;
    TimePoint now = TimePoint::zero();

    const std::size_t ops = 200 + rng.uniform_int(2000);
    for (std::size_t op = 0; op < ops; ++op) {
      const double coin = rng.uniform();
      if (coin < 0.5) {
        // Forward-running schedule; a repeated delay of zero exercises
        // the FIFO tie-break.
        const TimePoint at = now + random_delay(rng);
        const EventId a = wheel.schedule(at, [] {});
        const EventId b = reference.schedule(at, [] {});
        ASSERT_EQ(a, b) << "ids diverge at op " << op << " round " << round;
        outstanding.push_back(a);
      } else if (coin < 0.7) {
        auto a = wheel.pop();
        auto b = reference.pop();
        ASSERT_EQ(a.has_value(), b.has_value()) << "round " << round;
        if (a.has_value()) {
          ASSERT_EQ(a->at, b->at) << "round " << round;
          ASSERT_EQ(a->id, b->id) << "round " << round;
          now = a->at;
        }
      } else if (coin < 0.85) {
        // Cancel a random outstanding handle — often one already popped
        // or cancelled, which both sides must reject identically.
        const EventId id =
            outstanding.empty()
                ? static_cast<EventId>(rng.uniform_int(1'000'000))
                : outstanding[rng.uniform_int(outstanding.size())];
        ASSERT_EQ(wheel.cancel(id), reference.cancel(id))
            << "round " << round;
      } else if (coin < 0.95) {
        ASSERT_EQ(wheel.next_time(), reference.next_time())
            << "round " << round;
      } else {
        ASSERT_EQ(wheel.size(), reference.size()) << "round " << round;
        ASSERT_EQ(wheel.empty(), reference.empty()) << "round " << round;
      }
    }

    expect_same_drain(wheel, reference, round);
  }
}

TEST(EventQueueEquivalenceProperty, LoneNodeRegimeMatchesReference) {
  // One node alone in its simulator: a self-rescheduling wakeup beside a
  // far epoch event and the odd transfer completion, 1-3 pending at a
  // time. Most schedules land strictly before every pending event, so
  // the front slot admits, demotes and pops on nearly every operation;
  // the rest tie with the earliest pending event or land anywhere.
  Rng rng{20261017};
  for (int round = 0; round < 40; ++round) {
    EventQueue wheel;
    ReferenceEventQueue reference;
    std::vector<EventId> outstanding;
    TimePoint now = TimePoint::zero();

    const std::size_t ops = 500 + rng.uniform_int(3000);
    for (std::size_t op = 0; op < ops; ++op) {
      const std::size_t pending = reference.size();
      const double coin = rng.uniform();
      if (pending == 0 || (pending < 3 && coin < 0.55)) {
        const std::optional<TimePoint> next = reference.next_time();
        const double kind = rng.uniform();
        TimePoint at = now + random_delay(rng);
        if (next.has_value() && kind < 0.75 && *next > now) {
          at = now + Duration::microseconds(static_cast<std::int64_t>(
                         rng.uniform_int(
                             static_cast<std::uint64_t>((*next - now).count()))));
        } else if (next.has_value() && kind < 0.85) {
          at = *next;
        }
        const EventId a = wheel.schedule(at, [] {});
        const EventId b = reference.schedule(at, [] {});
        ASSERT_EQ(a, b) << "ids diverge at op " << op << " round " << round;
        outstanding.push_back(a);
      } else if (pending == 3 || coin < 0.85) {
        auto a = wheel.pop();
        auto b = reference.pop();
        ASSERT_EQ(a.has_value(), b.has_value()) << "round " << round;
        if (a.has_value()) {
          ASSERT_EQ(a->at, b->at) << "round " << round;
          ASSERT_EQ(a->id, b->id) << "round " << round;
          now = a->at;
        }
      } else if (coin < 0.93) {
        const EventId id = outstanding[rng.uniform_int(outstanding.size())];
        ASSERT_EQ(wheel.cancel(id), reference.cancel(id)) << "round " << round;
      } else {
        ASSERT_EQ(wheel.next_time(), reference.next_time())
            << "round " << round;
        ASSERT_EQ(wheel.size(), reference.size()) << "round " << round;
      }
    }
    expect_same_drain(wheel, reference, round);
  }
}

}  // namespace
}  // namespace snipr::sim
