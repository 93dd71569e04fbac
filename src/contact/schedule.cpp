#include "snipr/contact/schedule.hpp"

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

}  // namespace snipr::contact
