#include "snipr/deploy/road_contacts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "snipr/contact/process.hpp"

namespace snipr::deploy {

std::vector<VehicleEntry> materialize_vehicles(const VehicleFlow& flow,
                                               sim::Duration horizon,
                                               sim::Rng& rng) {
  if (flow.speed_mps == nullptr) {
    throw std::invalid_argument(
        "materialize_vehicles: speed distribution required");
  }
  // Entry *times* reuse the slot-renewal generator; the placeholder
  // contact length is discarded.
  contact::IntervalContactProcess entries{
      flow.profile, std::make_unique<sim::FixedDistribution>(1e-6),
      flow.jitter};
  std::vector<VehicleEntry> vehicles;
  const sim::TimePoint end = sim::TimePoint::zero() + horizon;
  for (;;) {
    const auto c = entries.next(rng);
    if (!c.has_value() || c->arrival >= end) break;
    vehicles.push_back(VehicleEntry{c->arrival, flow.speed_mps->sample(rng)});
  }
  return vehicles;
}

namespace {

/// Restore `order` to ascending (arrival, vehicle) after the arrivals
/// moved. Insertion sort costs O(V + inversions), and an order carried
/// over from the previous node has few: the overtakes between the two
/// positions. A carry with many (a range's first node, positions out of
/// order) falls back to std::sort once the shifts pass 8V. Both yield the
/// one sorted permutation, since (arrival, vehicle) is a strict total
/// order.
void restore_pass_order(std::vector<std::uint32_t>& order,
                        const std::vector<sim::TimePoint>& arrival) {
  const auto before = [&arrival](std::uint32_t a, std::uint32_t b) {
    if (arrival[a] != arrival[b]) return arrival[a] < arrival[b];
    return a < b;  // deterministic carrier on ties
  };
  std::size_t budget = 8 * order.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::uint32_t k = order[i];
    std::size_t j = i;
    for (; j > 0 && before(k, order[j - 1]); --j) order[j] = order[j - 1];
    order[j] = k;
    if (i - j > budget) {
      std::sort(order.begin(), order.end(), before);
      return;
    }
    budget -= i - j;
  }
}

/// When a vehicle is in range of a node: `start` after its entry, for
/// `span` (zero = never in range).
struct PassOffsets {
  sim::Duration start;
  sim::Duration span;
};

/// The pass of `v` at the node whose range is [near_edge, far_edge).
PassOffsets pass_offsets(const VehicleEntry& v, double near_edge,
                         double far_edge) {
  const double start_s = near_edge / v.speed_mps;
  const sim::Duration start = sim::Duration::seconds(start_s);
  // A vehicle exiting before the near edge never reaches range.
  if (v.exit_m <= near_edge) return {start, sim::Duration::zero()};
  const double end_s = std::min(far_edge, v.exit_m) / v.speed_mps;
  return {start, std::max(sim::Duration::zero(),
                          sim::Duration::seconds(end_s - start_s))};
}

/// The contact plan, with carrier lists only when `with_carriers`.
RoadContactPlan build_plan(const std::vector<double>& positions_m,
                           double range_m,
                           const std::vector<VehicleEntry>& vehicles,
                           bool with_carriers) {
  if (positions_m.empty()) {
    throw std::invalid_argument(
        "build_road_contact_plan: positions_m is empty");
  }
  RoadContactBuilder builder{range_m, vehicles};
  RoadContactPlan plan;
  plan.schedules.reserve(positions_m.size());
  if (with_carriers) plan.carriers.reserve(positions_m.size());
  for (const double x : positions_m) {
    if (with_carriers) {
      plan.schedules.push_back(builder.next(x, &plan.carriers.emplace_back()));
    } else {
      plan.schedules.push_back(builder.next(x));
    }
  }
  return plan;
}

}  // namespace

RoadContactBuilder::RoadContactBuilder(
    double range_m, const std::vector<VehicleEntry>& vehicles)
    : range_m_{range_m}, vehicles_{vehicles} {
  if (!(range_m > 0.0) || !std::isfinite(range_m)) {
    throw std::invalid_argument(
        "build_road_contact_plan: range_m must be finite and > 0");
  }
  for (const VehicleEntry& v : vehicles) {
    if (!(v.speed_mps > 0.0) || !std::isfinite(v.speed_mps)) {
      throw std::invalid_argument(
          "build_road_contact_plan: VehicleEntry::speed_mps must be finite "
          "and > 0");
    }
    // Rejects NaN and -inf; +inf means the vehicle drives through.
    if (!(v.exit_m > -std::numeric_limits<double>::infinity())) {
      throw std::invalid_argument(
          "build_road_contact_plan: VehicleEntry::exit_m must be a number "
          "or +inf (drives through)");
    }
  }

  const auto count = static_cast<std::uint32_t>(vehicles.size());
  one_class_ =
      !vehicles.empty() &&
      std::all_of(vehicles.begin(), vehicles.end(),
                  [&first = vehicles.front()](const VehicleEntry& v) {
                    return v.speed_mps == first.speed_mps &&
                           v.exit_m == first.exit_m;
                  });
  arrival_.resize(count);
  length_.resize(count);
  order_.resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    order_[k] = k;
    if (one_class_) arrival_[k] = vehicles[k].entry;
  }
}

contact::ContactSchedule RoadContactBuilder::next(
    double x_m, std::vector<std::uint32_t>* carriers) {
  if (!(x_m >= 0.0) || !std::isfinite(x_m)) {
    throw std::invalid_argument(
        "build_road_contact_plan: positions_m must be finite and >= 0");
  }
  const double near_edge = std::max(0.0, x_m - range_m_);
  const double far_edge = x_m + range_m_;
  if (one_class_) {
    // Every pass starts `start` after its vehicle's entry and lasts
    // `span`, so this node's contacts are the pattern at start 0 moved
    // by `start`: passes keep their (entry, vehicle) order and merge
    // alike.
    const PassOffsets pass =
        pass_offsets(vehicles_.front(), near_edge, far_edge);
    if (!pattern_.has_value() || pass.span != pattern_span_) {
      std::fill(length_.begin(), length_.end(), pass.span);
      const std::size_t passes =
          pass.span > sim::Duration::zero() ? length_.size() : 0;
      pattern_ = merge_passes(passes, &pattern_carriers_);
      pattern_span_ = pass.span;
    }
    if (carriers != nullptr) *carriers = pattern_carriers_;
    return pattern_->shifted(pass.start);
  }
  std::size_t passes = 0;
  for (std::size_t k = 0; k < vehicles_.size(); ++k) {
    const PassOffsets pass = pass_offsets(vehicles_[k], near_edge, far_edge);
    arrival_[k] = vehicles_[k].entry + pass.start;
    length_[k] = pass.span;
    if (pass.span > sim::Duration::zero()) ++passes;
  }
  return merge_passes(passes, carriers);
}

contact::ContactSchedule RoadContactBuilder::merge_passes(
    std::size_t passes, std::vector<std::uint32_t>* carriers) {
  restore_pass_order(order_, arrival_);

  // Merge overlapping passes into single contacts. The merged contact
  // keeps the first pass's vehicle: the carrier a probe would reach.
  std::vector<contact::Contact> merged;
  merged.reserve(passes);
  if (carriers != nullptr) {
    carriers->clear();
    carriers->reserve(passes);
  }
  for (const std::uint32_t vehicle : order_) {
    if (length_[vehicle] == sim::Duration::zero()) continue;
    const contact::Contact c{arrival_[vehicle], length_[vehicle]};
    if (!merged.empty() && c.arrival < merged.back().departure()) {
      const sim::TimePoint span_end =
          std::max(merged.back().departure(), c.departure());
      merged.back().length = span_end - merged.back().arrival;
    } else {
      merged.push_back(c);
      if (carriers != nullptr) carriers->push_back(vehicle);
    }
  }
  return contact::ContactSchedule{std::move(merged)};
}

RoadContactPlan build_road_contact_plan(
    const std::vector<double>& positions_m, double range_m,
    const std::vector<VehicleEntry>& vehicles) {
  return build_plan(positions_m, range_m, vehicles, true);
}

std::vector<contact::ContactSchedule> build_road_schedules(
    const std::vector<double>& positions_m, double range_m,
    const std::vector<VehicleEntry>& vehicles) {
  return build_plan(positions_m, range_m, vehicles, false).schedules;
}

}  // namespace snipr::deploy
