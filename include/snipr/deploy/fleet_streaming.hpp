#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "snipr/core/scenario.hpp"
#include "snipr/deploy/fleet.hpp"
#include "snipr/deploy/fleet_engine.hpp"

/// \file fleet_streaming.hpp
/// Bounded-memory streaming fleet runs.
///
/// Both fleet engines share one pipeline: one input builder (the shared
/// vehicle flow or the trace replay streams) and one shard runner,
/// which builds each node's contacts just before it runs and commits
/// shards in node order. `FleetEngine::run` keeps one NodeOutcome row
/// per node, O(fleet) memory that a million-node run cannot afford. The
/// streaming engine keeps none: each committed
/// shard's rows fold into the fleet aggregate `FleetEngine` reports
/// (node-order sums and one Welford pass) and a `stats::QuantileSketch`,
/// and are dropped. Peak memory is the vehicle flow, one node's contacts
/// per worker and the rows of at most 2 × workers shards, independent of
/// fleet size.
///
/// Determinism matches the run() contract: node i's contacts are a
/// pure function of (seed, i); per-node values are folded into the
/// accumulators in node order regardless of shard/thread count, so the
/// summary — and its JSON — is byte-identical for any partitioning.
///
/// Long runs can checkpoint: every `StreamingOptions::batch_shards`
/// folded shards the accumulator state is written (atomically) to
/// `StreamingOptions::checkpoint_path`, and a later call with the same
/// configuration resumes from the last checkpoint, bit-identical to an
/// uninterrupted run.

namespace snipr::deploy {

/// Aggregate outcome of a streaming fleet run (the whole point: no
/// per-node vector).
struct FleetSummary : FleetAggregate {
  std::uint64_t nodes{0};
  std::uint64_t epochs{0};
  std::uint64_t shards{0};
  /// Per-node mean-ζ quantiles from the merged sketch (1% relative
  /// error).
  double zeta_p50_s{0.0};
  double zeta_p90_s{0.0};
  double zeta_p99_s{0.0};
  /// Probed sessions summed over the whole fleet and run (exact).
  std::uint64_t contacts_probed{0};
  /// Discrete events executed across every node.
  std::uint64_t events_executed{0};
};

struct StreamingOptions {
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Checkpoint cadence: the state is written after every `batch_shards`
  /// folded shards, counted from the resume point, and at the end of the
  /// call. 0 = the worker count.
  std::size_t batch_shards{0};
  /// Process at most this many shards in this call, then checkpoint and
  /// return nullopt (time-slicing a huge run). 0 = run to completion.
  /// Needs a `checkpoint_path`; without one it is rejected.
  std::size_t max_shards{0};
};

/// Run `spec` as a streaming fleet. Returns the summary, or nullopt when
/// `options.max_shards` stopped the run early (state saved to the
/// checkpoint). The run is one `core::ThreadPool::ordered_for` call over
/// this call's shards, at most 2 × workers of them simulated or awaiting
/// their fold at once. Store-and-forward routing is rejected: replaying
/// per-contact sessions is exactly the per-node state streaming exists
/// to avoid. An enabled `spec.faults` is rejected too (std::invalid_argument
/// naming the field): this engine has no fault plane, and quietly
/// returning fault-free numbers for a chaos spec would be wrong. A null or
/// all-zero spec is accepted. An invalid spec, or `max_shards` without a
/// `checkpoint_path`, throws std::invalid_argument naming the field.
[[nodiscard]] std::optional<FleetSummary> run_streaming_fleet(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    const FleetConfig& config, const StreamingOptions& options = {});

/// Deterministic JSON for a summary (`snipr.fleet_summary.v1`).
[[nodiscard]] std::string to_json(const FleetSummary& summary);

}  // namespace snipr::deploy
