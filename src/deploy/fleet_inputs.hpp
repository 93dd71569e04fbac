#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "snipr/contact/schedule.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/deploy/collection.hpp"
#include "snipr/deploy/fleet.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/lone_node.hpp"
#include "snipr/sim/rng.hpp"
#include "snipr/stats/online_stats.hpp"

/// \file fleet_inputs.hpp
/// The fleet pipeline both engines share (library-internal): one input
/// builder, one partition rule, one shard runner and one aggregate.
/// `FleetEngine` and `run_streaming_fleet` differ only in what their
/// `run_shards` commit keeps of each shard.
///
/// Determinism contract: the contact streams come from root(seed) after
/// `nodes` forks of it are skipped, a stream order every recorded output
/// and the benchmark's own rebuild of the flow rely on. Then come the
/// shared vehicle flow and the early-exit draws (road), or one replay
/// stream per node (trace), each forked in node order before any
/// partitioning. A node's contacts and results are therefore a pure
/// function of (spec, seed, i), whatever the shard and thread counts.
///
/// Fleet nodes never interact while probing: each has its own channel,
/// buffer, budget, scheduler and fault stream, and the store-and-forward
/// pass runs only afterwards, over the exported probed contacts. So a
/// range simulates its nodes one at a time, each alone on its own clock
/// up to the horizon (node::run_lone_node, the runner single-node
/// experiments use too). The results are the same as on one shared
/// `sim::Simulator`.

namespace snipr::deploy {

/// The first `size()` forks of a parent stream, kept as the parent's
/// state before every kStride-th fork rather than as one engine per fork:
/// a streaming fleet of a million nodes would otherwise hold 32 MB of
/// streams on the calling thread. A node range rebuilds its forks in
/// order from the nearest mark.
class ForkedStreams {
 public:
  ForkedStreams() = default;
  /// Record `count` forks of `parent`, leaving it advanced past them.
  ForkedStreams(sim::Rng& parent, std::size_t count);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// The parent as it stood before fork `i` (i < size()): its next
  /// fork() is fork i, the one after it fork i + 1.
  [[nodiscard]] sim::Rng before(std::size_t i) const;

 private:
  static constexpr std::size_t kStride = 64;
  std::vector<sim::Rng> marks_;  ///< the parent before forks 0, kStride, ...
  std::size_t count_{0};
};

/// Which engine consumes the inputs. The summary engine keeps no
/// per-node state, so it rejects routing and an enabled fault spec.
enum class FleetOutput { kRows, kSummary };

/// A fleet's deterministic inputs, built and validated once. Exactly one
/// contact source is set: prebuilt `schedules`, a `road` flow, or a
/// `trace` replay.
struct FleetInputs {
  SchedulerFactory make_scheduler;
  /// The run's deployment, its node config as fleet nodes run it:
  /// per-contact records only when routing replays them.
  DeploymentConfig deployment;
  /// Each node's simulated span: its epoch × epochs.
  sim::Duration horizon{};
  /// Span the contact sources cover: the flow profile's epoch × epochs.
  sim::Duration contact_horizon{};
  std::size_t node_count{0};
  /// Attached when the fault spec is enabled.
  std::unique_ptr<fault::FaultPlan> faults;

  /// Prebuilt schedules; run_shards moves schedules[i] out.
  std::vector<contact::ContactSchedule> schedules;

  const RoadWorkload* road{nullptr};
  std::vector<VehicleEntry> vehicles;

  const TraceWorkload* trace{nullptr};
  std::vector<contact::Contact> trace_base;
  sim::Duration trace_period{};
  ForkedStreams trace_streams;  ///< fork i is node i's replay stream

  [[nodiscard]] std::size_t nodes() const noexcept { return node_count; }
};

/// Validate `spec` and the node budget for the `output` engine, plan
/// `spec.strategy` once (the maker in `make_scheduler` only constructs),
/// then draw the road flow and exits, or fork the trace replay streams.
/// Throws std::invalid_argument naming the offending field. `spec` must
/// outlive the result.
[[nodiscard]] FleetInputs build_fleet_inputs(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    const FleetConfig& config, FleetOutput output);

/// Inputs over caller-built schedules (node i runs schedules[i]).
/// `make_scheduler` must outlive the result.
[[nodiscard]] FleetInputs prebuilt_fleet_inputs(
    std::vector<contact::ContactSchedule> schedules,
    const SchedulerFactory& make_scheduler, const FleetConfig& config,
    const fault::FaultSpec* faults);

/// Positions of nodes [begin, end) on `road`: node i sits at
/// first_position_m + i × spacing_m.
[[nodiscard]] std::vector<double> road_positions(const RoadWorkload& road,
                                                 std::size_t begin,
                                                 std::size_t end);

/// How a run splits the fleet: `shards` contiguous node ranges, handed
/// to a pool of `threads` workers.
struct FleetPartition {
  std::size_t nodes;
  std::size_t shards;
  std::size_t threads;

  /// First node of shard s; shard s owns [begin(s), begin(s + 1)).
  [[nodiscard]] std::size_t begin(std::size_t s) const noexcept {
    return nodes * s / shards;
  }
};

/// `config`'s shard and thread counts resolved for `nodes` nodes.
[[nodiscard]] FleetPartition partition_fleet(const FleetConfig& config,
                                             std::size_t nodes);

/// One shard's results, as run_shards hands them to its commit.
struct ShardRun {
  /// One row per node, in node order.
  std::vector<NodeOutcome> rows;
  /// One collection session per probed contact, in node order; empty
  /// unless routing records probed contacts.
  std::vector<CollectionSession> sessions;
  std::uint64_t probed_sessions{0};  ///< summed over the shard's nodes
  std::uint64_t events{0};           ///< events executed, summed likewise
};

/// Simulate shards [first, first + count) of `partition` and hand each
/// to `commit(s, shard)` in shard order, so the commits see every node
/// in node order: one ThreadPool::ordered_for call over
/// `partition.threads` workers with a window of twice that, and its
/// failure rule. A shard builds each node just before it runs, so a
/// worker holds one node's contacts at a time. The commit may move out
/// of `shard`.
void run_shards(FleetInputs& inputs, const FleetPartition& partition,
                std::size_t first, std::size_t count,
                const std::function<void(std::size_t, ShardRun&)>& commit);

/// The fleet aggregate, defined once: each node's ζ, Φ and bytes summed
/// in node order, plus one Welford pass over ζ. Both engines add rows in
/// node order, so their aggregates agree bit for bit at any partition.
struct FleetTotals {
  stats::OnlineStats zeta;
  double zeta_s{0.0};
  double phi_s{0.0};
  double bytes{0.0};

  void add(const node::NodeSummary& node) noexcept;
  /// Jain's index (Σζ)²/(nΣζ²) is taken as mean²/(mean² + var), the same
  /// value conditioned on the spread, not on two huge nearly-equal sums.
  [[nodiscard]] FleetAggregate aggregate() const noexcept;
};

/// Append the aggregate's nine JSON fields, each followed by a comma.
void append_aggregate(std::string& out, const FleetAggregate& aggregate);

}  // namespace snipr::deploy
