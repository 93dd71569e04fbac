#include "snipr/trace/slot_stats.hpp"

#include <algorithm>
#include <numeric>

namespace snipr::trace {

TraceSlotStats::TraceSlotStats(const std::vector<contact::Contact>& contacts,
                               const contact::ArrivalProfile& layout)
    : layout_{layout}, counts_(layout.slot_count(), 0) {
  if (!contacts.empty()) {
    const sim::TimePoint end = contacts.back().departure();
    epochs_ = std::max<std::int64_t>(
        1, (end.count() + layout.epoch().count() - 1) / layout.epoch().count());
  }
  for (const contact::Contact& c : contacts) {
    ++counts_[layout_.slot_of(c.arrival)];
  }
}

std::vector<contact::SlotIndex> TraceSlotStats::slots_by_count() const {
  std::vector<contact::SlotIndex> order(counts_.size());
  std::iota(order.begin(), order.end(), contact::SlotIndex{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](contact::SlotIndex a, contact::SlotIndex b) {
                     return counts_[a] > counts_[b];
                   });
  return order;
}

contact::ArrivalProfile TraceSlotStats::estimate_profile() const {
  const double slot_len_s = layout_.slot_length().to_seconds();
  std::vector<double> intervals(counts_.size());
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    const double per_epoch =
        static_cast<double>(counts_[s]) / static_cast<double>(epochs_);
    intervals[s] = per_epoch > 0.0 ? slot_len_s / per_epoch : 0.0;
  }
  return contact::ArrivalProfile{layout_.epoch(), std::move(intervals)};
}

}  // namespace snipr::trace
