#pragma once

#include <cstddef>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/contact/profile.hpp"

/// \file slot_stats.hpp
/// Per-slot statistics of a contact trace, and trace -> profile estimation.
///
/// These are the offline counterparts of what a sensor node learns online:
/// given a recorded trace spanning one or more epochs, recover per-slot
/// arrival rates, contact capacity, and the rush-hour ordering.

namespace snipr::trace {

class TraceSlotStats {
 public:
  /// Aggregate `contacts` into the slot grid of `layout`. The number of
  /// observed epochs is inferred from the last departure (at least 1).
  TraceSlotStats(const std::vector<contact::Contact>& contacts,
                 const contact::ArrivalProfile& layout);

  [[nodiscard]] std::size_t slot_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::int64_t epochs_observed() const noexcept {
    return epochs_;
  }

  /// Slots ordered by decreasing observed contact count.
  [[nodiscard]] std::vector<contact::SlotIndex> slots_by_count() const;

  /// Estimated arrival profile from the trace: a slot's mean interval is
  /// slot length / (contacts per observed epoch); 0 (dead) when empty.
  [[nodiscard]] contact::ArrivalProfile estimate_profile() const;

 private:
  contact::ArrivalProfile layout_;
  std::vector<std::size_t> counts_;  ///< contacts arriving in each slot
  std::int64_t epochs_{1};
};

}  // namespace snipr::trace
