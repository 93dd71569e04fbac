#pragma once

#include <string>
#include <variant>

#include "snipr/contact/process.hpp"

/// \file workload.hpp
/// The fleet workload variants.
///
/// A fleet's contact workload is exactly one of two things: a *road*
/// workload (geometry plus a shared generative vehicle flow — the
/// paper's Fig. 1 setting) or a *trace* workload (every node replays its
/// own rotated slice of one recorded or generated corpus). The old
/// `FleetSpec` encoded the choice implicitly — an empty-or-not `trace`
/// string gating which of a dozen flat fields were meaningful — which
/// is precisely the accretion this variant replaces: each alternative
/// now carries only the fields that exist for it, and the engine
/// dispatches with std::visit instead of string sniffing.

namespace snipr::deploy {

/// Generative road workload: N nodes along one road, all visited by the
/// same uncontrolled vehicle flow (contacts stay correlated across the
/// fleet, shifted by travel offsets).
struct RoadWorkload {
  /// Position of node 0 (metres from the road entry) and the uniform
  /// spacing between consecutive nodes.
  double first_position_m{50.0};
  double spacing_m{300.0};
  /// Communication range shared by every node.
  double range_m{10.0};

  /// Jitter applied to the flow's entry intervals.
  contact::IntervalJitter jitter{contact::IntervalJitter::kNormalTenth};

  /// Per-vehicle speed: truncated normal, or fixed when stddev <= 0.
  double speed_mean_mps{10.0};
  double speed_stddev_mps{1.5};
  double speed_min_mps{2.0};

  /// Fraction of vehicles that traverse the whole road. The rest exit
  /// early at a position drawn uniformly over the road span (their own
  /// stream, forked after the flow — 1.0 draws nothing, so a pure
  /// through-flow is bit-identical to the pre-exit engine). Early exits
  /// are what make store-and-forward relaying (deploy::RoutingSpec)
  /// non-trivial: a partial carrier must hand data off to a node for a
  /// later vehicle to ferry onward.
  double through_fraction{1.0};
};

/// Trace-replay workload: node i replays the named `trace::TraceCatalog`
/// entry, phase-rotated by i * stagger_s within the trace span (tiled at
/// the trace entry's own epoch) and perturbed per contact by
/// jitter_stddev_s from the node's own RNG stream. A *heterogeneous*
/// fleet: every node sees a different slice of one recorded workload.
struct TraceWorkload {
  std::string trace;  ///< trace::TraceCatalog entry name
  double stagger_s{0.0};
  double jitter_stddev_s{0.0};
  /// Resolution directory for a file-backed trace entry. Empty = the
  /// runtime default ($SNIPR_TRACE_DATA_DIR, then the compiled-in
  /// corpus dir); a catalog-pinned fleet must set
  /// trace::TraceCatalog::compiled_data_dir() so an environment override
  /// cannot swap the corpus behind a golden-pinned name.
  std::string data_dir;
};

using Workload = std::variant<RoadWorkload, TraceWorkload>;

}  // namespace snipr::deploy
