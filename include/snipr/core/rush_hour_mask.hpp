#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "snipr/contact/profile.hpp"
#include "snipr/contact/slot_clock.hpp"
#include "snipr/sim/time.hpp"

/// \file rush_hour_mask.hpp
/// The Rush-Hours bitmap of SNIP-RH (Sec. VI-A of the paper).
///
/// An epoch is divided into N equal time-slots; each is marked "1" (rush
/// hour: SNIP may be activated) or "0". Engineers can configure the mask
/// directly, or it can be learned from probed contacts (RushHourLearner).
///
/// Every lookup is constant-time: slots map through a contact::SlotClock,
/// the bits live in 64-bit words, the rush count is maintained by set(),
/// and next_rush_after() finds the next set bit cyclically with
/// std::countr_zero instead of walking slot by slot.

namespace snipr::core {

class RushHourMask {
 public:
  /// All-zero mask over `slot_count` slots of epoch `epoch`.
  RushHourMask(sim::Duration epoch, std::size_t slot_count);
  /// Explicit bitmap.
  RushHourMask(sim::Duration epoch, const std::vector<bool>& slots);

  /// 24-slot diurnal mask with the listed hours marked; the paper's
  /// road-side scenario is from_hours({7, 8, 17, 18}).
  [[nodiscard]] static RushHourMask from_hours(
      std::initializer_list<std::size_t> hours);

  /// Mask selecting the first `k` slots of `ordered` (e.g. slots sorted by
  /// observed contact count).
  [[nodiscard]] static RushHourMask top_k(
      sim::Duration epoch, std::size_t slot_count,
      const std::vector<contact::SlotIndex>& ordered, std::size_t k);

  [[nodiscard]] const contact::SlotClock& slot_clock() const noexcept {
    return clock_;
  }
  [[nodiscard]] sim::Duration epoch() const noexcept { return clock_.epoch(); }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return clock_.slot_count();
  }
  [[nodiscard]] sim::Duration slot_length() const noexcept {
    return clock_.slot_length();
  }
  [[nodiscard]] bool is_rush_slot(contact::SlotIndex s) const;
  /// True when `t` falls in a rush slot (epoch wraps).
  [[nodiscard]] bool is_rush(sim::TimePoint t) const noexcept {
    return bit(clock_.slot_of(t));
  }
  /// Start of the next rush slot at or after `t`; `t` itself when already
  /// inside one. Returns nullopt for an all-zero mask.
  [[nodiscard]] std::optional<sim::TimePoint> next_rush_start(
      sim::TimePoint t) const noexcept;
  /// Start of the first rush slot after the slot containing `t` (see
  /// SlotClock::next_boundary for where the scan begins). Returns nullopt
  /// for an all-zero mask.
  [[nodiscard]] std::optional<sim::TimePoint> next_rush_after(
      sim::TimePoint t) const noexcept;

  /// Number of slots marked "1".
  [[nodiscard]] std::size_t rush_slot_count() const noexcept {
    return rush_count_;
  }

  void set(contact::SlotIndex s, bool rush);
  /// The bitmap, one entry per slot.
  [[nodiscard]] std::vector<bool> bits() const;

 private:
  [[nodiscard]] bool bit(contact::SlotIndex s) const noexcept {
    return ((words_[s >> 6] >> (s & 63)) & 1U) != 0;
  }

  contact::SlotClock clock_;
  /// Slot s is bit (s % 64) of words_[s / 64]; bits past the last slot
  /// stay zero, which the cyclic scan relies on.
  std::vector<std::uint64_t> words_;
  std::size_t rush_count_{0};
};

}  // namespace snipr::core
