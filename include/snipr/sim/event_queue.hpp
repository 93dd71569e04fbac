#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "snipr/sim/inline_callback.hpp"
#include "snipr/sim/time.hpp"

/// \file event_queue.hpp
/// Pending-event set for the discrete-event engine.

namespace snipr::sim {

/// Bytes of inline storage per event callback. Sized for the fattest
/// closure on the hot path (SensorNode::begin_transfer's completion,
/// ~56 bytes); anything larger fails the InlineCallback static_assert.
inline constexpr std::size_t kEventCallbackCapacity = 64;

/// Time-ordered queue of callbacks, allocation-free in steady state.
/// Ties at equal timestamps run in schedule order (FIFO), which keeps
/// runs deterministic.
///
/// A binary min-heap of small `(filing time, seq, slot)` keys over a
/// stable vector of callback slots recycled through a free list: sifts
/// move only the keys, never a callback. A simulated node keeps about
/// three events pending, so the heap is a few keys deep.
class EventQueue {
 public:
  using Callback = InlineCallback<kEventCallbackCapacity>;

  /// Schedule `fn` at absolute time `at`. Scheduling before the latest
  /// popped timestamp (rejected upstream by `Simulator::schedule_at`)
  /// files the event at that timestamp, behind the events already
  /// pending there; it still reports its requested timestamp.
  void schedule(TimePoint at, Callback fn);

  /// Timestamp of the earliest pending event.
  [[nodiscard]] std::optional<TimePoint> next_time() const;

  /// True when no events are pending.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Pop the earliest event and return it; nullopt when empty.
  struct Popped {
    TimePoint at;
    Callback fn;
  };
  [[nodiscard]] std::optional<Popped> pop() {
    return pop_due(TimePoint::max());
  }

  /// Pop the earliest event only if its timestamp is <= `limit`;
  /// nullopt when the queue is empty or the head lies beyond the limit
  /// (which stays pending).
  [[nodiscard]] std::optional<Popped> pop_due(TimePoint limit);

 private:
  /// `filed`: the requested µs, raised to the latest popped `filed` for
  /// a past schedule. Ordering reads it and `seq`, never `Slot::at`.
  struct Key {
    std::int64_t filed;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Callback fn;
    TimePoint at;
  };

  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.filed != b.filed ? a.filed < b.filed : a.seq < b.seq;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::int64_t popped_{std::numeric_limits<std::int64_t>::min()};
  std::uint64_t next_seq_{0};
};

}  // namespace snipr::sim
