#include "snipr/contact/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace snipr::contact {
namespace {

bool arrival_less(const Contact& a, const Contact& b) {
  return a.arrival < b.arrival;
}

}  // namespace

ContactSchedule::ContactSchedule(std::vector<Contact> contacts)
    : contacts_{std::move(contacts)} {
  // One pass; disorder anywhere is reported ahead of an overlap.
  bool overlap = false;
  for (std::size_t i = 1; i < contacts_.size(); ++i) {
    if (arrival_less(contacts_[i], contacts_[i - 1])) {
      throw std::invalid_argument("ContactSchedule: contacts must be sorted");
    }
    overlap = overlap || contacts_[i].arrival < contacts_[i - 1].departure();
  }
  if (overlap) throw std::invalid_argument("ContactSchedule: contacts overlap");
}

std::optional<Contact> ContactSchedule::active_at(sim::TimePoint t) const {
  // Last contact with arrival <= t is the only candidate (no overlaps).
  const Contact probe{t, sim::Duration::zero()};
  auto it = std::upper_bound(contacts_.begin(), contacts_.end(), probe,
                             arrival_less);
  if (it == contacts_.begin()) return std::nullopt;
  --it;
  return it->covers(t) ? std::optional<Contact>{*it} : std::nullopt;
}

std::optional<Contact> ContactSchedule::next_arrival_at_or_after(
    sim::TimePoint t) const {
  const Contact probe{t, sim::Duration::zero()};
  const auto it = std::lower_bound(contacts_.begin(), contacts_.end(), probe,
                                   arrival_less);
  if (it == contacts_.end()) return std::nullopt;
  return *it;
}

sim::Duration ContactSchedule::capacity_in(sim::TimePoint from,
                                           sim::TimePoint to) const {
  sim::Duration total = sim::Duration::zero();
  const Contact probe{from, sim::Duration::zero()};
  for (auto it = std::lower_bound(contacts_.begin(), contacts_.end(), probe,
                                  arrival_less);
       it != contacts_.end() && it->arrival < to; ++it) {
    total += it->length;
  }
  return total;
}

std::size_t ContactSchedule::count_in(sim::TimePoint from,
                                      sim::TimePoint to) const {
  const Contact lo{from, sim::Duration::zero()};
  const Contact hi{to, sim::Duration::zero()};
  const auto first = std::lower_bound(contacts_.begin(), contacts_.end(), lo,
                                      arrival_less);
  const auto last =
      std::lower_bound(first, contacts_.end(), hi, arrival_less);
  return static_cast<std::size_t>(last - first);
}

std::vector<sim::Duration> ContactSchedule::capacity_by_slot(
    const ArrivalProfile& profile) const {
  std::vector<sim::Duration> out(profile.slot_count(), sim::Duration::zero());
  for (const Contact& c : contacts_) {
    out[profile.slot_of(c.arrival)] += c.length;
  }
  return out;
}

std::vector<std::size_t> ContactSchedule::count_by_slot(
    const ArrivalProfile& profile) const {
  std::vector<std::size_t> out(profile.slot_count(), 0);
  for (const Contact& c : contacts_) {
    ++out[profile.slot_of(c.arrival)];
  }
  return out;
}

}  // namespace snipr::contact
