#pragma once

#include <vector>

#include "snipr/contact/contact.hpp"

/// \file schedule.hpp
/// A materialised contact list, checked once to be sorted and
/// non-overlapping. The simulated channel (radio::Channel) answers "is a
/// mobile node in range at time t?" over it.

namespace snipr::contact {

class ContactSchedule {
 public:
  /// Takes a list sorted by arrival (materialize() output qualifies);
  /// throws if unsorted or if contacts overlap.
  explicit ContactSchedule(std::vector<Contact> contacts);

  /// This schedule with every arrival moved by `by`. A checked schedule
  /// moved as a whole stays sorted and non-overlapping, so the copy is
  /// not checked again; throws std::invalid_argument only when the first
  /// arrival or the last departure would leave the microsecond clock.
  [[nodiscard]] ContactSchedule shifted(sim::Duration by) const;

  [[nodiscard]] const std::vector<Contact>& contacts() const noexcept {
    return contacts_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return contacts_.size(); }
  [[nodiscard]] bool empty() const noexcept { return contacts_.empty(); }

 private:
  std::vector<Contact> contacts_;
};

}  // namespace snipr::contact
