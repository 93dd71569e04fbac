#include "snipr/radio/channel.hpp"

#include <stdexcept>
#include <utility>

namespace snipr::radio {

Channel::Channel(contact::ContactSchedule schedule, LinkParams link,
                 sim::Rng /*unused*/)
    : Channel{std::make_shared<const contact::ContactSchedule>(
                  std::move(schedule)),
              link} {}

Channel::Channel(std::shared_ptr<const contact::ContactSchedule> schedule,
                 LinkParams link)
    : schedule_{std::move(schedule)}, link_{link} {
  if (schedule_ == nullptr) {
    throw std::invalid_argument("radio::Channel: schedule must not be null");
  }
}

std::size_t Channel::position_cursor(sim::TimePoint t) const {
  const std::vector<contact::Contact>& contacts = schedule_->contacts();
  if (t < cursor_time_) {
    // Backward query: step back over the contacts that have not departed
    // by t. Departures are non-decreasing (the schedule is sorted and
    // non-overlapping), so those contacts are exactly the ones between
    // the new cursor and the old one. The post-probe re-read at the
    // beacon's start steps back at most one contact.
    while (cursor_ > 0 && contacts[cursor_ - 1].departure() > t) --cursor_;
  } else {
    while (cursor_ < contacts.size() &&
           contacts[cursor_].departure() <= t) {
      ++cursor_;
    }
  }
  cursor_time_ = t;
  return cursor_;
}

std::optional<contact::Contact> Channel::active_contact(
    sim::TimePoint t) const {
  const std::vector<contact::Contact>& contacts = schedule_->contacts();
  const std::size_t i = position_cursor(t);
  if (i < contacts.size() && contacts[i].covers(t)) return contacts[i];
  return std::nullopt;
}

std::size_t Channel::next_arrival_index(sim::TimePoint t) const {
  const std::vector<contact::Contact>& contacts = schedule_->contacts();
  std::size_t i = position_cursor(t);
  // The cursor keeps only undeparted contacts ahead of it, which is one
  // contact too far for this query when a zero-length contact sits
  // exactly at t: it has departure() == arrival == t, so the cursor has
  // stepped past it even though its arrival satisfies >= t. Walk back
  // over any such contacts (all necessarily zero-length at exactly t —
  // arrival >= t and departure() <= t force both) so the result matches
  // a binary search for the first arrival >= t on every schedule.
  while (i > 0 && contacts[i - 1].arrival >= t) --i;
  // The contact at the cursor has not departed yet, but may be active
  // (arrival < t); every later contact arrives strictly after t.
  if (i < contacts.size() && contacts[i].arrival < t) ++i;
  return i;
}

bool Channel::try_deliver(sim::TimePoint start,
                          sim::Duration airtime) const {
  if (!(airtime > sim::Duration::zero())) {
    // A zero-length frame carries no bytes over the air (a transfer with
    // zero bytes remaining degenerates to this). It is deliverable
    // whenever the receiver is in range at the instant itself — under the
    // *closed* interval [arrival, departure], since exactly-at-departure
    // and zero-length contacts are still "in range for the whole (empty)
    // airtime".
    const std::vector<contact::Contact>& contacts = schedule_->contacts();
    const std::size_t i = position_cursor(start);
    if (i < contacts.size() && contacts[i].covers(start)) return true;
    // Exactly at a departure boundary the cursor has stepped past the
    // contact (departures are non-decreasing, so if any earlier contact
    // departs exactly at `start`, the one just behind the cursor does).
    return i > 0 && contacts[i - 1].departure() == start;
  }
  const auto active = active_contact(start);
  if (!active.has_value()) return false;
  // A frame ending exactly at departure is still fully in range
  // ([start, start+airtime) against [arrival, departure)): strict >.
  return start + airtime <= active->departure();
}

}  // namespace snipr::radio
