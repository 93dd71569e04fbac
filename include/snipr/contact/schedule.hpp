#pragma once

#include <optional>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/contact/profile.hpp"

/// \file schedule.hpp
/// Immutable, queryable view over a materialised contact list.
///
/// The simulated channel asks "is a mobile node in range at time t?" and
/// "when does the current contact end?"; per-slot capacity queries feed
/// learning and reporting.

namespace snipr::contact {

class ContactSchedule {
 public:
  /// Takes a list sorted by arrival (materialize() output qualifies);
  /// throws if unsorted or if contacts overlap.
  explicit ContactSchedule(std::vector<Contact> contacts);

  [[nodiscard]] const std::vector<Contact>& contacts() const noexcept {
    return contacts_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return contacts_.size(); }
  [[nodiscard]] bool empty() const noexcept { return contacts_.empty(); }

  /// Contact covering `t`, if any.
  [[nodiscard]] std::optional<Contact> active_at(sim::TimePoint t) const;
  /// First contact with arrival >= t.
  [[nodiscard]] std::optional<Contact> next_arrival_at_or_after(
      sim::TimePoint t) const;

  /// Total capacity (Σ Tcontact) of contacts arriving in [from, to).
  [[nodiscard]] sim::Duration capacity_in(sim::TimePoint from,
                                          sim::TimePoint to) const;
  /// Number of contacts arriving in [from, to).
  [[nodiscard]] std::size_t count_in(sim::TimePoint from,
                                     sim::TimePoint to) const;

  /// Per-slot capacity accumulated across all epochs covered by the
  /// schedule, indexed by slot. Slot membership is by arrival time.
  [[nodiscard]] std::vector<sim::Duration> capacity_by_slot(
      const ArrivalProfile& profile) const;
  /// Per-slot contact counts across all epochs, indexed by slot.
  [[nodiscard]] std::vector<std::size_t> count_by_slot(
      const ArrivalProfile& profile) const;

 private:
  std::vector<Contact> contacts_;
};

}  // namespace snipr::contact
