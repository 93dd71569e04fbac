#include "snipr/contact/schedule.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace snipr::contact {

ContactSchedule::ContactSchedule(std::vector<Contact> contacts)
    : contacts_{std::move(contacts)} {
  // One pass; disorder anywhere is reported ahead of an overlap.
  bool overlap = false;
  for (std::size_t i = 1; i < contacts_.size(); ++i) {
    if (contacts_[i].arrival < contacts_[i - 1].arrival) {
      throw std::invalid_argument("ContactSchedule: contacts must be sorted");
    }
    overlap = overlap || contacts_[i].arrival < contacts_[i - 1].departure();
  }
  if (overlap) throw std::invalid_argument("ContactSchedule: contacts overlap");
}

ContactSchedule ContactSchedule::shifted(sim::Duration by) const {
  if (!contacts_.empty()) {
    const std::int64_t shift = by.count();
    const auto leaves_clock = [shift](sim::TimePoint t) {
      return shift > 0
                 ? t.count() > std::numeric_limits<std::int64_t>::max() - shift
                 : t.count() < std::numeric_limits<std::int64_t>::min() - shift;
    };
    if (leaves_clock(contacts_.front().arrival) ||
        leaves_clock(contacts_.back().departure())) {
      throw std::invalid_argument(
          "ContactSchedule::shifted: shift overflows the clock");
    }
  }
  ContactSchedule out{*this};
  for (Contact& c : out.contacts_) c.arrival += by;
  return out;
}

}  // namespace snipr::contact
