#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// \file collection_detail.hpp
/// The three kernels of the collection pass (`run_collection`), exposed
/// only so the property tests can pin each one to a plain reference:
/// the event order, the latency quantiles and the relay hop lookup.
/// Not part of the stable API.

namespace snipr::deploy::detail {

/// One event of the collection pass: a probed session at a node, or a
/// sink pass, which carries the fleet size as its node. So at one
/// instant every session runs before the delivery window opens.
struct CollectionEvent {
  double t_s;
  std::uint32_t node;
  std::uint32_t vehicle;
  double departure_s;  // sessions: carrier leaves range; sink: window end
};

/// The pass's order: by (t_s, node, vehicle, departure_s). Every field
/// is a key, so two events that neither precedes are equal, and every
/// sorting algorithm yields the same sequence.
[[nodiscard]] inline bool event_before(const CollectionEvent& a,
                                       const CollectionEvent& b) noexcept {
  if (a.t_s != b.t_s) return a.t_s < b.t_s;
  if (a.node != b.node) return a.node < b.node;
  if (a.vehicle != b.vehicle) return a.vehicle < b.vehicle;
  return a.departure_s < b.departure_s;
}

/// Sort `events` by `event_before` (for finite times). Merges the
/// ascending runs the list already holds, pairwise, so a list made of
/// few runs costs O(n log runs): the engine's sessions come node by node
/// in probe order, one run per node, and the sink passes are nearly
/// ordered.
void sort_events(std::vector<CollectionEvent>& events);

/// One byte-weighted uniform latency segment: `bytes` of data whose
/// end-to-end latency is uniformly distributed over [lo_s, hi_s] (the
/// fluid image of a parcel's generation interval at its delivery time).
/// A segment no wider than 1e-12 s is a point mass at lo_s.
struct LatencySegment {
  double lo_s;
  double hi_s;
  double bytes;
};

/// Exact quantiles of the mixture the segments form: out[j] is the
/// qs[j] quantile, for qs ascending in [0, 1]. One sort of the segment
/// endpoints and one sweep serve every q. The sweep accumulates mass at
/// the current total density, interpolates inside the interval where a
/// target mass is crossed, and steps over a point mass as a jump (the
/// quantile is then its position). All zero when there is no mass.
void mixture_quantiles(const std::vector<LatencySegment>& segments,
                       std::span<const double> qs, std::span<double> out);

/// Each node's learned hop count to the sink, and the least one over the
/// nodes of a road stretch. Hop counts only fall, and only to 0 (the
/// sink), 1 or 2; a node that never learned one counts as kUnknown.
/// Positions are sorted once, and a stretch query tests one bitset per
/// hop level over the stretch's ranks instead of scanning every node.
class RelayHops {
 public:
  static constexpr std::uint8_t kUnknown = 255;

  /// Every node starts unknown. `positions_m` must be finite.
  explicit RelayHops(const std::vector<double>& positions_m);

  [[nodiscard]] std::uint8_t hops(std::size_t node) const {
    return hops_[node];
  }

  /// Node `node` learned `hops` (0, 1 or 2); a count at or above the
  /// node's current one changes nothing.
  void lower(std::size_t node, std::uint8_t hops);

  /// min hops over nodes j with x_m < positions_m[j] <= exit_m, or
  /// kUnknown when no such node knows a route.
  [[nodiscard]] std::uint8_t min_in(double x_m, double exit_m) const;

 private:
  std::vector<std::uint8_t> hops_;   ///< per node
  std::vector<double> sorted_m_;     ///< positions, ascending
  std::vector<std::uint32_t> rank_;  ///< node -> index into sorted_m_
  /// Bit r of level h: the node at rank r has hops <= h.
  std::array<std::vector<std::uint64_t>, 3> known_;
};

}  // namespace snipr::deploy::detail
