#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "snipr/contact/process.hpp"
#include "snipr/contact/profile.hpp"
#include "snipr/contact/schedule.hpp"
#include "snipr/sim/distributions.hpp"
#include "snipr/sim/rng.hpp"

/// \file road_contacts.hpp
/// Correlated contact schedules for a multi-node road-side deployment.
///
/// The paper's motivating scenario (Fig. 1, Sec. I) is a *network* of
/// sparse sensor nodes, each visited by the same uncontrolled mobile
/// nodes. A vehicle entering the road at time t with speed v reaches the
/// node at position x after x/v and stays within communication range R
/// for a chord of 2R/v — so all nodes see the same diurnal rush hours,
/// shifted by their travel offsets and sharing per-vehicle speed. This
/// builder turns a vehicle flow into one ContactSchedule per node,
/// preserving those correlations (the single-node generators in
/// snipr::contact cannot).

namespace snipr::deploy {

/// One vehicle entering the road.
struct VehicleEntry {
  sim::TimePoint entry;  ///< time the vehicle passes position 0
  double speed_mps;      ///< constant along the road
  /// Position where the vehicle leaves the road; +inf = drives through.
  /// A vehicle exiting at e is in range of the node at x only while its
  /// position is below e, so a node with x − R ≥ e never sees it.
  double exit_m{std::numeric_limits<double>::infinity()};
};

/// The uncontrolled vehicle flow: entry times follow a per-slot arrival
/// profile (rush hours!), speeds are iid per vehicle.
struct VehicleFlow {
  contact::ArrivalProfile profile{contact::ArrivalProfile::roadside()};
  std::unique_ptr<sim::Distribution> speed_mps{
      std::make_unique<sim::FixedDistribution>(10.0)};
  /// Jitter applied to the entry intervals (kNormalTenth = paper's env).
  contact::IntervalJitter jitter{contact::IntervalJitter::kNormalTenth};
};

/// Materialise vehicle entries over [0, horizon).
[[nodiscard]] std::vector<VehicleEntry> materialize_vehicles(
    const VehicleFlow& flow, sim::Duration horizon, sim::Rng& rng);

/// Contact schedules for sensor nodes at `positions_m` along the road,
/// all with communication range `range_m`. A vehicle entering at t with
/// speed v is in range of the node at x over
///   [t + max(0, x − R)/v,  t + (x + R)/v).
/// Overlapping passes at one node (two vehicles in range together) are
/// merged into a single contact, honouring the reference model's
/// one-mobile-at-a-time assumption (Sec. II). A vehicle leaves range at
/// its exit. No carrier lists are built; see build_road_contact_plan.
[[nodiscard]] std::vector<contact::ContactSchedule> build_road_schedules(
    const std::vector<double>& positions_m, double range_m,
    const std::vector<VehicleEntry>& vehicles);

/// Road schedules with carrier identity preserved: carriers[i][j] is the
/// index (into the vehicles vector) of the vehicle behind contact j of
/// node i. When overlapping passes merge into one contact, the merged
/// contact keeps the *first* pass's vehicle — the carrier the probing
/// handshake would reach first.
struct RoadContactPlan {
  std::vector<contact::ContactSchedule> schedules;
  std::vector<std::vector<std::uint32_t>> carriers;
};

/// The schedules of build_road_schedules plus which vehicle carries
/// each contact — the contact plan the store-and-forward collection pass
/// routes data over.
///
/// Cost: on a one-class road, where every vehicle shares (speed, exit),
/// every node sees one pattern of passes shifted by its travel offset,
/// so the passes are merged once per builder in O(V), again only for a
/// node whose pass span differs (x < R, or cut short by the shared
/// exit), and each node costs an O(contacts) shifted copy. On a mixed
/// road each node computes every vehicle's offsets and carries the
/// previous node's (arrival, vehicle) pass order forward, so sorted
/// positions cost O(V + overtakes) per node. Throws
/// std::invalid_argument naming `positions_m` (empty, negative or
/// non-finite), `range_m` (not finite and positive),
/// `VehicleEntry::speed_mps` (not finite and positive) or
/// `VehicleEntry::exit_m` (NaN or −∞; +∞ drives through).
[[nodiscard]] RoadContactPlan build_road_contact_plan(
    const std::vector<double>& positions_m, double range_m,
    const std::vector<VehicleEntry>& vehicles);

/// build_road_contact_plan one node at a time: a fleet shard runs each
/// node as soon as its schedule exists, so only one node's contacts are
/// live at once rather than the whole range's. `vehicles` must outlive
/// the builder. Throws as build_road_contact_plan does: the constructor
/// on a bad `range_m` or vehicle, next() on a bad position.
class RoadContactBuilder {
 public:
  RoadContactBuilder(double range_m,
                     const std::vector<VehicleEntry>& vehicles);

  /// The schedule of the node at `x_m`. When `carriers` is non-null it
  /// receives the vehicle behind each contact. Nodes given in position
  /// order cost the least.
  [[nodiscard]] contact::ContactSchedule next(
      double x_m, std::vector<std::uint32_t>* carriers = nullptr);

 private:
  /// Restore order_ to (arrival_, vehicle) order and merge the passes
  /// into contacts, `passes` of them of non-zero length; `carriers`
  /// (null = not kept) receives the vehicle behind each contact.
  [[nodiscard]] contact::ContactSchedule merge_passes(
      std::size_t passes, std::vector<std::uint32_t>* carriers);

  double range_m_;
  const std::vector<VehicleEntry>& vehicles_;
  /// Every vehicle shares (speed, exit), and there is at least one.
  bool one_class_{false};
  /// Per-node keys, reused across nodes; a zero length means no pass.
  /// On a one-class road they hold the passes at start 0.
  std::vector<sim::TimePoint> arrival_;
  std::vector<sim::Duration> length_;
  /// Vehicles in (arrival, vehicle) order, carried from node to node.
  std::vector<std::uint32_t> order_;
  /// One-class road: the merged passes at start 0 for the span they were
  /// last built for, and the vehicle behind each.
  std::optional<contact::ContactSchedule> pattern_;
  sim::Duration pattern_span_{};
  std::vector<std::uint32_t> pattern_carriers_;
};

}  // namespace snipr::deploy
