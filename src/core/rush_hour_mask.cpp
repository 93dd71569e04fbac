#include "snipr/core/rush_hour_mask.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace snipr::core {

RushHourMask::RushHourMask(sim::Duration epoch, std::size_t slot_count)
    : clock_{epoch, slot_count, "RushHourMask"},
      words_((slot_count + 63) / 64, 0) {}

RushHourMask::RushHourMask(sim::Duration epoch, const std::vector<bool>& slots)
    : RushHourMask{epoch, slots.size()} {
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s]) set(s, true);
  }
}

RushHourMask RushHourMask::from_hours(
    std::initializer_list<std::size_t> hours) {
  RushHourMask mask{sim::Duration::hours(24), 24};
  for (const std::size_t h : hours) {
    if (h >= 24) throw std::invalid_argument("from_hours: hour must be < 24");
    mask.set(h, true);
  }
  return mask;
}

RushHourMask RushHourMask::top_k(sim::Duration epoch, std::size_t slot_count,
                                 const std::vector<contact::SlotIndex>& ordered,
                                 std::size_t k) {
  RushHourMask mask{epoch, slot_count};
  const std::size_t take = std::min(k, ordered.size());
  for (std::size_t i = 0; i < take; ++i) {
    if (ordered[i] >= slot_count) {
      throw std::invalid_argument("top_k: slot index out of range");
    }
    mask.set(ordered[i], true);
  }
  return mask;
}

bool RushHourMask::is_rush_slot(contact::SlotIndex s) const {
  if (s >= slot_count()) throw std::out_of_range("RushHourMask::is_rush_slot");
  return bit(s);
}

std::optional<sim::TimePoint> RushHourMask::next_rush_start(
    sim::TimePoint t) const noexcept {
  if (is_rush(t)) return t;
  return next_rush_after(t);
}

std::optional<sim::TimePoint> RushHourMask::next_rush_after(
    sim::TimePoint t) const noexcept {
  if (rush_count_ == 0) return std::nullopt;
  const contact::SlotClock::Boundary from = clock_.next_boundary(t);
  // Cyclic find-next-set-bit from `from.slot`: mask off the bits below it
  // in its word, then walk the words (wrapping once). Some bit is set, so
  // the loop ends within words_.size() + 1 steps.
  std::size_t w = from.slot >> 6;
  std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from.slot & 63));
  while (word == 0) {
    w = w + 1 == words_.size() ? 0 : w + 1;
    word = words_[w];
  }
  const std::size_t found =
      (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  const std::size_t ahead = found >= from.slot
                                ? found - from.slot
                                : found + slot_count() - from.slot;
  return from.start + slot_length() * static_cast<std::int64_t>(ahead);
}

void RushHourMask::set(contact::SlotIndex s, bool rush) {
  if (s >= slot_count()) throw std::out_of_range("RushHourMask::set");
  if (bit(s) == rush) return;
  words_[s >> 6] ^= std::uint64_t{1} << (s & 63);
  if (rush) {
    ++rush_count_;
  } else {
    --rush_count_;
  }
}

std::vector<bool> RushHourMask::bits() const {
  std::vector<bool> out(slot_count(), false);
  for (std::size_t s = 0; s < out.size(); ++s) out[s] = bit(s);
  return out;
}

}  // namespace snipr::core
