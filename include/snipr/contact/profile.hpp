#pragma once

#include <cstddef>
#include <vector>

#include "snipr/contact/slot_clock.hpp"
#include "snipr/sim/time.hpp"

/// \file profile.hpp
/// Per-time-slot contact arrival profile.
///
/// The paper divides an epoch (e.g. 24 h of diurnal human mobility) into N
/// equal time-slots (Sec. VI-A) and characterises each slot by how often
/// contacts arrive in it. This type is the shared environment description
/// used by generators (to synthesise contact processes), by the analytical
/// model (to compute per-slot capacity), and by planners (SNIP-OPT's
/// per-slot duty-cycles, SNIP-RH's rush-hour mask).

namespace snipr::contact {

class ArrivalProfile {
 public:
  /// \param epoch          epoch length Tepoch (> 0).
  /// \param mean_intervals per-slot mean inter-arrival time Tinterval in
  ///                       seconds; one entry per slot, all > 0. Use
  ///                       `kNoContacts` for a dead slot.
  ArrivalProfile(sim::Duration epoch, std::vector<double> mean_intervals);

  /// Sentinel mean interval for slots with no contacts at all.
  static constexpr double kNoContacts = 0.0;

  [[nodiscard]] sim::Duration epoch() const noexcept { return clock_.epoch(); }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return clock_.slot_count();
  }
  [[nodiscard]] sim::Duration slot_length() const noexcept {
    return clock_.slot_length();
  }

  /// Slot containing absolute time `t` (epoch wraps).
  [[nodiscard]] SlotIndex slot_of(sim::TimePoint t) const noexcept {
    return clock_.slot_of(t);
  }
  /// Start of slot `s` within the epoch containing `t`.
  [[nodiscard]] sim::TimePoint slot_start(sim::TimePoint t) const noexcept;

  /// Mean inter-arrival seconds for slot `s`; kNoContacts when dead.
  [[nodiscard]] double mean_interval_s(SlotIndex s) const;
  /// Arrival rate (contacts/second) for slot `s`; 0 when dead.
  [[nodiscard]] double arrival_rate(SlotIndex s) const;
  /// Expected number of contacts arriving during one occurrence of slot `s`.
  [[nodiscard]] double expected_contacts(SlotIndex s) const;
  /// Expected contacts over a whole epoch.
  [[nodiscard]] double expected_contacts_per_epoch() const;

  /// Slots ordered by decreasing arrival rate (ties by index); the ground
  /// truth a rush-hour learner tries to recover.
  [[nodiscard]] std::vector<SlotIndex> slots_by_rate() const;

  /// The paper's simplified road-side scenario (Sec. VII-A): Tepoch = 24 h,
  /// N = 24, rush hours 7:00-9:00 and 17:00-19:00 with Tinterval = 300 s,
  /// Tinterval = 1800 s elsewhere.
  [[nodiscard]] static ArrivalProfile roadside();

  /// Flat profile: every slot has the same mean interval.
  [[nodiscard]] static ArrivalProfile uniform(sim::Duration epoch,
                                              std::size_t slots,
                                              double mean_interval_s);

 private:
  SlotClock clock_;
  std::vector<double> mean_intervals_;
};

}  // namespace snipr::contact
