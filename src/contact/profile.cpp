#include "snipr/contact/profile.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace snipr::contact {

ArrivalProfile::ArrivalProfile(sim::Duration epoch,
                               std::vector<double> mean_intervals)
    : clock_{epoch, mean_intervals.size(), "ArrivalProfile"},
      mean_intervals_{std::move(mean_intervals)} {
  for (const double m : mean_intervals_) {
    if (m < 0.0) {
      throw std::invalid_argument(
          "ArrivalProfile: mean intervals must be >= 0 (0 = no contacts)");
    }
  }
}

sim::TimePoint ArrivalProfile::slot_start(sim::TimePoint t) const noexcept {
  const std::int64_t slot_us = slot_length().count();
  const std::int64_t floored = (t.count() / slot_us) * slot_us;
  return sim::TimePoint::at(sim::Duration::microseconds(floored));
}

double ArrivalProfile::mean_interval_s(SlotIndex s) const {
  if (s >= mean_intervals_.size()) {
    throw std::out_of_range("ArrivalProfile::mean_interval_s");
  }
  return mean_intervals_[s];
}

double ArrivalProfile::arrival_rate(SlotIndex s) const {
  const double m = mean_interval_s(s);
  return m == kNoContacts ? 0.0 : 1.0 / m;
}

double ArrivalProfile::expected_contacts(SlotIndex s) const {
  return arrival_rate(s) * slot_length().to_seconds();
}

double ArrivalProfile::expected_contacts_per_epoch() const {
  double total = 0.0;
  for (SlotIndex s = 0; s < slot_count(); ++s) total += expected_contacts(s);
  return total;
}

std::vector<SlotIndex> ArrivalProfile::slots_by_rate() const {
  std::vector<SlotIndex> order(slot_count());
  std::iota(order.begin(), order.end(), SlotIndex{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](SlotIndex a, SlotIndex b) {
                     return arrival_rate(a) > arrival_rate(b);
                   });
  return order;
}

ArrivalProfile ArrivalProfile::roadside() {
  std::vector<double> intervals(24, 1800.0);
  for (const SlotIndex rush : {7U, 8U, 17U, 18U}) intervals[rush] = 300.0;
  return ArrivalProfile{sim::Duration::hours(24), std::move(intervals)};
}

ArrivalProfile ArrivalProfile::uniform(sim::Duration epoch, std::size_t slots,
                                       double mean_interval_s) {
  return ArrivalProfile{epoch, std::vector<double>(slots, mean_interval_s)};
}

}  // namespace snipr::contact
