#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

/// \file node_block.hpp
/// A sensor node's per-wakeup counters.
///
/// Every probing wakeup mutates a handful of counters (Φ, ζ, bytes,
/// wakeups, the budget meter, the retiming hints). A standalone
/// SensorNode holds its NodeCounters by value. A NodeBlock holds one
/// NodeCounters per node for callers that run several nodes on one
/// sim::Simulator (each to a common bound in turn) and want their
/// counters side by side; a node built over a block writes its own entry.

namespace snipr::node {

/// One node's counters. The epoch-scoped ones are zeroed at each epoch
/// boundary, after the node has recorded the epoch.
struct NodeCounters {
  /// Sentinel for `last_probed_arrival_us`: no contact probed yet.
  /// (A real arrival can never sit at the far negative edge of the time
  /// axis — simulations start at TimePoint::zero().)
  static constexpr std::int64_t kNoArrival =
      std::numeric_limits<std::int64_t>::min();

  // --- Epoch-scoped -----------------------------------------------------
  std::int64_t phi_us{0};
  std::int64_t zeta_us{0};
  double bytes_uploaded{0.0};
  std::uint64_t contacts_probed{0};
  std::uint64_t wakeups{0};
  /// The per-epoch probing budget meter.
  std::int64_t budget_used_us{0};

  // --- Run-scoped -------------------------------------------------------
  /// The scheduler's most recent next_wakeup decision (the retiming hint
  /// re-applied after a transfer completes).
  std::int64_t last_wakeup_us{1'000'000};  // historical 1 s default
  /// Arrival timestamp of the last probed contact (kNoArrival = none) —
  /// the new-session test that keeps re-probes of one contact from
  /// double-counting ζ.
  std::int64_t last_probed_arrival_us{kNoArrival};
  /// Probed sessions over the whole run (the numerator of miss_ratio),
  /// maintained whether or not per-contact records are retained.
  std::uint64_t probed_sessions{0};
};

/// The counters of a block of nodes, one entry (lane) per node.
struct NodeBlock {
  explicit NodeBlock(std::size_t nodes) : lanes(nodes) {}

  std::vector<NodeCounters> lanes;
};

}  // namespace snipr::node
