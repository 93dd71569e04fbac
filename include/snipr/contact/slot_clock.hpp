#pragma once

#include <cstddef>
#include <cstdint>

#include "snipr/sim/time.hpp"

/// \file slot_clock.hpp
/// The one definition of slot arithmetic (Sec. VI-A of the paper).
///
/// An epoch Tepoch is divided into N equal time-slots and an absolute
/// time maps to the slot it falls in, wrapping at every epoch boundary.
/// ArrivalProfile, RushHourMask, RushHourLearner and SnipOpt all answer
/// "which slot is `t` in?" through this type, so they can never disagree
/// about a boundary. The slot length is computed once at construction;
/// a lookup is one `%` (with a sign fix-up for negative times) and one
/// `/`, and the clock holds no mutable state, so it is safe to share
/// across threads.

namespace snipr::contact {

/// Index of a slot within an epoch, in [0, slot_count).
using SlotIndex = std::size_t;

class SlotClock {
 public:
  /// Throws std::invalid_argument, prefixed with `owner`, unless `epoch`
  /// is positive, `slot_count` is at least one and divides `epoch` evenly.
  SlotClock(sim::Duration epoch, std::size_t slot_count, const char* owner);

  [[nodiscard]] sim::Duration epoch() const noexcept {
    return sim::Duration::microseconds(epoch_us_);
  }
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_; }
  [[nodiscard]] sim::Duration slot_length() const noexcept {
    return sim::Duration::microseconds(slot_us_);
  }

  /// Slot containing absolute time `t` (epoch wraps; negative times
  /// count back from the epoch end).
  [[nodiscard]] SlotIndex slot_of(sim::TimePoint t) const noexcept {
    std::int64_t into_epoch = t.count() % epoch_us_;
    if (into_epoch < 0) into_epoch += epoch_us_;
    return static_cast<SlotIndex>(into_epoch / slot_us_);
  }

  /// Where a forward slot scan from `t` begins: the start of the slot
  /// after `t`'s, and that slot's index. The quotient truncates toward
  /// zero, so for a negative `t` off a boundary the scan begins one slot
  /// later than the floored slot grid would.
  struct Boundary {
    sim::TimePoint start;
    SlotIndex slot;
  };
  [[nodiscard]] Boundary next_boundary(sim::TimePoint t) const noexcept {
    const std::int64_t k = t.count() / slot_us_ + 1;
    auto slot = static_cast<std::int64_t>(
        k % static_cast<std::int64_t>(slots_));
    if (slot < 0) slot += static_cast<std::int64_t>(slots_);
    return {sim::TimePoint::at(sim::Duration::microseconds(k * slot_us_)),
            static_cast<SlotIndex>(slot)};
  }

  /// Start of the epoch after `t`'s, where a spent per-epoch budget
  /// resets (the quotient truncates toward zero, as next_boundary's does).
  [[nodiscard]] sim::TimePoint next_epoch_start(
      sim::TimePoint t) const noexcept {
    return sim::TimePoint::at(
        sim::Duration::microseconds((t.count() / epoch_us_ + 1) * epoch_us_));
  }

 private:
  std::int64_t epoch_us_;
  std::int64_t slot_us_;
  std::size_t slots_;
};

}  // namespace snipr::contact
