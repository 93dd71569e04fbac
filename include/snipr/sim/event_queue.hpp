#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "snipr/sim/inline_callback.hpp"
#include "snipr/sim/time.hpp"

/// \file event_queue.hpp
/// Pending-event set for the discrete-event engine.

namespace snipr::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Packs a slot index (low 32 bits) and that slot's generation at
/// schedule time (high 32 bits), so a handle outliving its event can
/// never cancel a newer event that happens to reuse the slot.
using EventId = std::uint64_t;

/// Invalid sentinel (never returned by schedule(); generations start at
/// 1 and a wrapping slot skips 0, so every real id has a non-zero high
/// half).
inline constexpr EventId kInvalidEventId = 0;

/// Bytes of inline storage per event callback. Sized for the fattest
/// closure on the hot path (SensorNode::begin_transfer's completion,
/// ~56 bytes); anything larger fails the InlineCallback static_assert.
inline constexpr std::size_t kEventCallbackCapacity = 64;

/// Time-ordered queue of callbacks with O(1) schedule/pop/cancel for the
/// near-future-dominated event mix, allocation-free in steady state.
/// Ties at equal timestamps run in schedule order (FIFO), which keeps
/// runs deterministic.
///
/// Internally a hierarchical timing wheel (Varghese–Lauck), laid out as
/// a "hierarchical clock": `kLevels` levels of `kBucketsPerLevel`
/// buckets, one digit of the event's microsecond tick per level. An
/// event is filed at the *highest* digit in which its tick differs from
/// the wheel's current tick `cur_`, so level 0 holds exactly one tick
/// per bucket (the current 256-tick span) and pops read bucket heads in
/// tick order. When the search for the next event crosses a digit
/// boundary, the bucket at the new digit *cascades*: its events re-file
/// one level down, in list order, which is schedule order — that, plus
/// the fact that a boundary always cascades before any new event can be
/// filed directly into the span it opens, is why FIFO ties survive the
/// wheel (DESIGN.md, "Hot path & memory layout"). Events beyond the
/// 2^32-µs (~71.6 min) wheel horizon wait in a small overflow min-heap
/// ordered by (tick, seq) and are pulled into the wheels one
/// 2^32-µs span at a time, in that order.
///
/// Callbacks live in a flat slot array (`slots_`), inline via
/// InlineCallback — never on the heap. A slot *is* its event: the bucket
/// lists are intrusive (prev/next indices stored in the slot), so
/// cancel() unlinks in O(1) without tombstones, and overflow entries
/// carry their heap position for O(log overflow) removal. Occupancy
/// bitmaps (256 bits per level) let the pop path jump straight to the
/// next occupied bucket instead of ticking through empty ones.
///
/// One event may sit outside the wheel in the *front slot*: an event is
/// admitted there only when it is strictly earlier than every pending
/// event and not before the latest popped timestamp, and pops take it
/// without moving the wheel. A lone self-rescheduling timer (one node's
/// wakeup beside its daily epoch event) therefore never cascades. A
/// schedule that is not later than the front event demotes it into the
/// wheel first, so the front stays strictly earliest and a tie never
/// enters it (the earlier-scheduled event wins the tie): FIFO ties, ids
/// and slot retirement order are unchanged.
///
/// Generations wrap at 2^32, skipping generation 0 (reserved so a
/// recycled slot can never mint an id equal to the `kInvalidEventId`
/// sentinel); a stale handle could alias only after a single slot is
/// reused four billion times while the handle is held.
class EventQueue {
 public:
  using Callback = InlineCallback<kEventCallbackCapacity>;

  EventQueue();

  /// Schedule `fn` at absolute time `at`. Returns a handle for cancel().
  /// Scheduling before the latest popped timestamp (rejected upstream by
  /// `Simulator::schedule_at`) files the event at the wheel's current
  /// position, the latest popped timestamp: it pops as soon as possible,
  /// after pending events at the current tick, and still reports its
  /// requested timestamp.
  EventId schedule(TimePoint at, Callback fn);

  /// Cancel a pending event. Returns false if the event already ran,
  /// was already cancelled, or was never scheduled.
  bool cancel(EventId id);

  /// Timestamp of the earliest pending (non-cancelled) event.
  [[nodiscard]] std::optional<TimePoint> next_time() const;

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Entries held by the internal structures (front slot, wheel buckets
  /// and overflow heap). cancel() unlinks its entry eagerly — the wheel
  /// keeps no tombstones — so this always equals size(). Kept (and
  /// pinned by tests) as the no-leak guarantee the binary-heap
  /// predecessor documented: a cancel-heavy workload cannot grow storage
  /// unboundedly.
  [[nodiscard]] std::size_t heap_size() const noexcept { return live_; }

  /// Pop the earliest event and return it; nullopt when empty.
  struct Popped {
    TimePoint at;
    EventId id{kInvalidEventId};
    Callback fn;
  };
  [[nodiscard]] std::optional<Popped> pop();

  /// Pop the earliest event only if its timestamp is <= `limit`;
  /// nullopt when the queue is empty or the head lies beyond the limit
  /// (which stays pending). Fuses the next_time()+pop() pair the drain
  /// loop would otherwise issue into a single wheel advance.
  [[nodiscard]] std::optional<Popped> pop_due(TimePoint limit);

 private:
  friend struct EventQueueTestPeer;

  static constexpr unsigned kLevelBits = 8;
  static constexpr unsigned kLevels = 4;
  static constexpr std::uint32_t kBucketsPerLevel = 1u << kLevelBits;
  static constexpr std::uint32_t kBucketCount = kLevels * kBucketsPerLevel;
  static constexpr unsigned kWordsPerLevel = kBucketsPerLevel / 64;
  /// List terminator / "no position" marker for slot links.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// `Slot::bucket` values outside [0, kBucketCount).
  static constexpr std::uint32_t kNoBucket = 0xFFFFFFFFu;
  static constexpr std::uint32_t kOverflowBucket = 0xFFFFFFFEu;

  /// Callback storage cell, reused across events via the free list; with
  /// the intrusive links below, the slot is also the queue entry. The
  /// generation counts retirements: an id minted against an older
  /// generation is stale.
  struct Slot {
    Callback fn;
    TimePoint at{};
    /// Filing tick: to_tick(at), raised to the latest popped tick for a
    /// past schedule. Every ordering decision reads this, never `at`.
    std::uint64_t tick{0};
    std::uint64_t seq{0};
    std::uint32_t generation{1};
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
    std::uint32_t bucket{kNoBucket};
    /// Position in `overflow_` while bucket == kOverflowBucket.
    std::uint32_t heap_index{kNil};
  };

  [[nodiscard]] static EventId pack(std::uint32_t generation,
                                    std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  /// Order-preserving unsigned image of a timestamp (sign bit flipped),
  /// so wheel digits are plain radix digits even for negative times.
  [[nodiscard]] static std::uint64_t to_tick(TimePoint at) noexcept {
    return static_cast<std::uint64_t>(at.count()) ^
           (std::uint64_t{1} << 63);
  }

  /// File a live slot into the wheel level/bucket its tick selects
  /// relative to `cur_` (or the overflow heap beyond the horizon).
  void place(std::uint32_t slot);
  /// Append to a bucket's intrusive list (FIFO: pops read the head).
  void link(std::uint32_t bucket, std::uint32_t slot);
  /// Remove a slot from its bucket's list, clearing the occupancy bit
  /// when the bucket empties.
  void unlink(std::uint32_t slot);
  /// Remove a bucket's head slot (the pop path — no predecessor fixup).
  void unlink_head(std::uint32_t bucket);
  /// Release a slot's callback, bump its generation (skipping 0) and
  /// recycle it.
  void retire(std::uint32_t slot);

  /// Slot index of the earliest pending event (kNil when empty); called
  /// only while the front slot is empty. Does not move the wheel: cur_
  /// must only advance when an event is actually consumed, otherwise a
  /// later schedule between the last pop and the pending head would be
  /// misfiled. Scans at most one bucket list; the result is cached until
  /// a pop, a cancel of the head, or an earlier schedule invalidates it.
  [[nodiscard]] std::uint32_t peek_head() const;

  /// Re-file every event of a wheel bucket one level down (list order =
  /// schedule order, preserving FIFO ties).
  void cascade(std::uint32_t bucket);
  /// Set `cur_` to the overflow minimum's 2^32-µs span and move that
  /// whole span into the wheels in (timestamp, seq) order.
  void pull_overflow();

  /// First occupied bucket index >= `from` at `level`, or
  /// kBucketsPerLevel when none.
  [[nodiscard]] unsigned find_first_from(unsigned level,
                                         unsigned from) const noexcept;

  // Overflow min-heap of slot indices ordered by (at, seq); slots track
  // their heap position for O(log n) removal on cancel.
  [[nodiscard]] bool overflow_before(std::uint32_t a,
                                     std::uint32_t b) const noexcept;
  void overflow_push(std::uint32_t slot);
  void overflow_remove(std::size_t index);
  void overflow_sift_up(std::size_t index);
  void overflow_sift_down(std::size_t index);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> overflow_;
  /// Intrusive list head/tail per bucket, all levels flattened.
  std::array<std::uint32_t, kBucketCount> head_;
  std::array<std::uint32_t, kBucketCount> tail_;
  /// One occupancy bit per bucket (bits_[b >> 6] bit (b & 63)).
  std::array<std::uint64_t, kBucketCount / 64> bits_{};
  /// Current wheel tick (biased; starts at the minimum representable
  /// time). Only wheel pops advance it, so it may trail `popped_`.
  std::uint64_t cur_{0};
  /// Tick of the latest popped event, front or wheel: the floor below
  /// which a schedule counts as "past".
  std::uint64_t popped_{0};
  /// Cached peek_head() result; kNil when unknown. Mutable so the const
  /// observer next_time() can fill it.
  mutable std::uint32_t peek_{kNil};
  /// The front slot: an event strictly earlier than everything in the
  /// wheel and overflow heap, held outside them (kNil when empty).
  std::uint32_t front_{kNil};
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
};

}  // namespace snipr::sim
