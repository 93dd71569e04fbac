#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/sim/time.hpp"

/// \file schedule_lookup.hpp
/// Contact lookups over a sorted, non-overlapping contact list written
/// the obvious way, as binary searches: the reference model that
/// `property_channel_cursor_test` holds `radio::Channel`'s monotone
/// cursor to, for any query order.

namespace snipr::testing {

inline bool arrives_before(const contact::Contact& c, sim::TimePoint t) {
  return c.arrival < t;
}

/// Contact covering `t`, if any: only the last arrival <= t can.
inline std::optional<contact::Contact> active_at(
    const std::vector<contact::Contact>& contacts, sim::TimePoint t) {
  auto it = std::upper_bound(
      contacts.begin(), contacts.end(), t,
      [](sim::TimePoint at, const contact::Contact& c) {
        return at < c.arrival;
      });
  if (it == contacts.begin()) return std::nullopt;
  --it;
  return it->covers(t) ? std::optional<contact::Contact>{*it} : std::nullopt;
}

/// First contact arriving at or after `t`.
inline std::optional<contact::Contact> next_arrival_at_or_after(
    const std::vector<contact::Contact>& contacts, sim::TimePoint t) {
  const auto it =
      std::lower_bound(contacts.begin(), contacts.end(), t, arrives_before);
  if (it == contacts.end()) return std::nullopt;
  return *it;
}

}  // namespace snipr::testing
