#pragma once

#include <memory>
#include <optional>

#include "snipr/contact/schedule.hpp"
#include "snipr/radio/link.hpp"
#include "snipr/sim/rng.hpp"

/// \file channel.hpp
/// Contact-driven radio channel.
///
/// Geometry is abstracted by the contact schedule (Sec. II reference
/// model): a frame between the sensor node and the mobile node is
/// delivered iff a contact covers the transmission. The channel loses no
/// frame of its own; an unreliable receiver is the fault plane's
/// `RadioFaultSpec::probe_miss_prob`, drawn from the node's fault stream.
///
/// The schedule is held by shared_ptr-to-const so one materialised
/// schedule can back many channels (BatchRunner builds each distinct
/// (scenario, epochs, jitter, seed) schedule once per grid); per-channel
/// mutable state is only the query cursor.
///
/// Queries are served through a monotone cursor: simulation time only
/// moves forward, so instead of a fresh O(log n) binary search per
/// wakeup the channel remembers the first contact that has not yet
/// departed and advances it linearly — amortised O(1) across a run. A
/// backward query (the post-probe `active_contact` re-read, replay,
/// tests) steps the cursor back over the contacts that have not departed
/// by then, so any query sequence returns exactly what a binary search
/// over the schedule would.

namespace snipr::radio {

class Channel {
 public:
  /// The channel draws nothing, so the trailing stream is unused; it
  /// stays so that callers which pass one still compile.
  Channel(contact::ContactSchedule schedule, LinkParams link,
          sim::Rng /*unused*/ = sim::Rng{});
  /// Throws std::invalid_argument when `schedule` is null.
  Channel(std::shared_ptr<const contact::ContactSchedule> schedule,
          LinkParams link);

  [[nodiscard]] const contact::ContactSchedule& schedule() const noexcept {
    return *schedule_;
  }
  [[nodiscard]] const LinkParams& link() const noexcept { return link_; }

  /// Contact covering `t`, if any.
  [[nodiscard]] std::optional<contact::Contact> active_contact(
      sim::TimePoint t) const;

  /// Index in schedule().contacts() of the first contact with arrival
  /// >= t (the cursor-accelerated form of a binary search over the
  /// arrivals); size() when none arrives at or after t. A forward walk
  /// over the schedule from here sees every later arrival in order.
  [[nodiscard]] std::size_t next_arrival_index(sim::TimePoint t) const;

  /// True when a frame transmitted over [start, start+airtime) is
  /// delivered: the receiver is in range for the whole airtime.
  [[nodiscard]] bool try_deliver(sim::TimePoint start,
                                 sim::Duration airtime) const;

 private:
  /// Advance (or step back) the cursor to the first contact
  /// with departure() > t, the only candidate able to cover t or any
  /// later instant. Returns the cursor index.
  std::size_t position_cursor(sim::TimePoint t) const;

  std::shared_ptr<const contact::ContactSchedule> schedule_;
  LinkParams link_;
  /// Invariant: every contact before cursor_ has departure() <=
  /// cursor_time_ (initially vacuous), so forward queries never look
  /// behind it.
  mutable std::size_t cursor_{0};
  mutable sim::TimePoint cursor_time_{sim::TimePoint::zero()};
};

}  // namespace snipr::radio
