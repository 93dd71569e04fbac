#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "snipr/sim/rng.hpp"

/// \file fault_plan.hpp
/// Seeded, deterministic fault injection for fleet runs.
///
/// A FaultSpec describes *what* can go wrong — radio false negatives and
/// spurious detections, mid-transfer aborts, node crash/reboot cycles,
/// lossy store-and-forward hand-offs — and a FaultPlan turns it into
/// *when*, using per-node RNG streams forked in node order, before any
/// partitioning, from one root seeded with `FaultSpec::seed`. They are
/// the only random streams a node draws from while it runs, and
/// `probe_miss_prob` is the simulator's one radio-loss model. Every fault
/// decision for node i is therefore a pure function of (spec, i) and the
/// node's own event sequence, so a faulted fleet run stays byte-identical
/// at any shard and thread count. With no plan attached nothing here runs
/// and no stream is consumed, which keeps fault-free outputs
/// byte-identical to builds that predate the fault plane.
///
/// Fault decisions must come from these plan-forked streams only; the
/// injectors are handed precomputed scalars (a contact-position fraction,
/// a byte budget) rather than simulator state, so this layer never peeks
/// at ground truth the probing protocol could not see.

namespace snipr::fault {

/// Radio-layer faults, applied at probe and transfer time.
struct RadioFaultSpec {
  /// Probability that a probe which would have detected a contact misses
  /// it (radio false negative). The node pays the full miss cost (Ton)
  /// and the learner never hears about the contact — exactly the
  /// censored distortion a real duty-cycled radio suffers.
  double probe_miss_prob{0.0};
  /// SNR-style weighting of `probe_miss_prob` by contact position: a
  /// probe landing near the contact edges (vehicle at maximum range)
  /// misses up to (1 + weight) times more often than the base rate,
  /// while one at mid-contact misses at the base rate. 0 disables.
  double snr_edge_weight{0.0};
  /// Probability that a probe finding *no* contact hallucinates one
  /// (radio false positive). The phantom detection is reported to the
  /// scheduler — polluting the learner's observed process — but no
  /// transfer follows.
  double spurious_detect_prob{0.0};
  /// Probability that a transfer session aborts partway: the session
  /// ends at a uniform fraction of its planned duration and delivers
  /// the truncated byte count.
  double transfer_abort_prob{0.0};

  [[nodiscard]] bool enabled() const noexcept {
    return probe_miss_prob > 0.0 || spurious_detect_prob > 0.0 ||
           transfer_abort_prob > 0.0;
  }
};

/// Node-layer faults: crash/reboot cycles that cost learned state.
struct NodeFaultSpec {
  /// Per-epoch crash probability, drawn at each epoch boundary. A crash
  /// reboots the node with its scheduler state either wiped (amnesia)
  /// or restored from the last epoch-boundary checkpoint.
  double crash_prob_per_epoch{0.0};
  /// true: reboot restores the scheduler from its last epoch-boundary
  /// checkpoint (flash-backed state). false: full amnesia — the
  /// scheduler restarts as constructed and must re-converge.
  bool restore_from_checkpoint{false};
  /// A crashed node counts as re-converged once this fraction of its
  /// pre-crash rush slots are rush slots again.
  double reconvergence_overlap{0.9};

  [[nodiscard]] bool enabled() const noexcept {
    return crash_prob_per_epoch > 0.0;
  }
};

/// Collection-layer faults: lossy node<->vehicle hand-offs with bounded
/// retry. Every failed attempt and every backoff burns residual contact
/// bandwidth, so reliability trades directly against throughput.
struct CollectionFaultSpec {
  /// Probability that one hand-off attempt (pickup or deposit) is lost.
  double handoff_loss_prob{0.0};
  /// Retries after the first failed attempt before the hand-off is
  /// abandoned (the data stays with its current custodian).
  std::uint32_t max_retries{0};
  /// Backoff before each retry, seconds of contact time (burned from the
  /// session's byte budget at the link rate).
  double retry_backoff_s{0.0};

  [[nodiscard]] bool enabled() const noexcept {
    return handoff_loss_prob > 0.0;
  }
};

/// The full fault plane configuration attached to a fleet run.
struct FaultSpec {
  /// Root seed of the fault-plan streams. Independent of the deployment
  /// seed so the same environment can be replayed under many fault
  /// draws (and vice versa).
  std::uint64_t seed{1};
  RadioFaultSpec radio;
  NodeFaultSpec node;
  CollectionFaultSpec collection;

  [[nodiscard]] bool enabled() const noexcept {
    return radio.enabled() || node.enabled() || collection.enabled();
  }
};

/// Deterministic JSON for a spec (`snipr.fault_plan.v1`) — what the
/// randomized chaos CI job uploads when a seed finds a failure, so the
/// exact plan is reproducible from the artifact alone.
[[nodiscard]] std::string to_json(const FaultSpec& spec);

/// Per-node resilience counters, merged in node order into the
/// `resilience` section of the fleet outcome.
struct NodeResilience {
  std::uint64_t detections_lost{0};     ///< radio false negatives
  std::uint64_t spurious_detections{0}; ///< radio false positives
  std::uint64_t transfers_aborted{0};   ///< sessions cut short
  std::uint64_t crashes{0};             ///< reboot events
  /// Post-crash epochs spent below the re-convergence overlap.
  std::uint64_t reconvergence_epochs{0};
  /// Crashes whose mask recovered within the run.
  std::uint64_t reconvergences{0};

  void merge(const NodeResilience& other) noexcept {
    detections_lost += other.detections_lost;
    spurious_detections += other.spurious_detections;
    transfers_aborted += other.transfers_aborted;
    crashes += other.crashes;
    reconvergence_epochs += other.reconvergence_epochs;
    reconvergences += other.reconvergences;
  }
};

/// One node's fault decision stream plus its counters. Handed to exactly
/// one SensorNode; never shared across nodes, so shard workers never
/// race on it.
class NodeFaultInjector {
 public:
  NodeFaultInjector(const FaultSpec* spec, sim::Rng stream) noexcept
      : spec_{spec}, rng_{stream} {}

  [[nodiscard]] const FaultSpec& spec() const noexcept { return *spec_; }
  [[nodiscard]] NodeResilience& counters() noexcept { return counters_; }
  [[nodiscard]] const NodeResilience& counters() const noexcept {
    return counters_;
  }

  /// Should this would-be detection be dropped? `contact_fraction` is
  /// how far into the contact the probe landed, in [0, 1]; with
  /// `snr_edge_weight` the miss rate rises toward the edges (parabolic:
  /// base rate at mid-contact, base*(1+weight) at either edge). Draws
  /// only when `probe_miss_prob > 0`.
  [[nodiscard]] bool miss_probe(double contact_fraction);

  /// Should this empty probe hallucinate a detection? Draws only when
  /// `spurious_detect_prob > 0`.
  [[nodiscard]] bool spurious_detection();

  /// Abort fraction for a transfer session: 1.0 = run to completion
  /// (the common case), otherwise the uniform fraction of the planned
  /// duration at which the session dies. Draws only when
  /// `transfer_abort_prob > 0`.
  [[nodiscard]] double transfer_abort_fraction();

  /// Does the node crash at this epoch boundary? Draws only when
  /// `crash_prob_per_epoch > 0`.
  [[nodiscard]] bool crash_now();

 private:
  const FaultSpec* spec_;
  sim::Rng rng_;
  NodeResilience counters_;
};

/// Counters of the collection-layer fault stream (single-threaded pass).
struct CollectionResilience {
  std::uint64_t handoffs_lost{0};      ///< failed hand-off attempts
  std::uint64_t handoffs_retried{0};   ///< retry attempts issued
  std::uint64_t handoffs_abandoned{0}; ///< hand-offs given up entirely
};

/// The collection pass's fault stream: one seeded RNG consumed in the
/// pass's deterministic event order (the pass is single-threaded, so the
/// draw sequence is shard-independent by construction).
class CollectionFaultState {
 public:
  CollectionFaultState(const CollectionFaultSpec& spec, sim::Rng stream,
                       double data_rate_bps) noexcept
      : spec_{spec}, rng_{stream}, data_rate_bps_{data_rate_bps} {}

  [[nodiscard]] const CollectionFaultSpec& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] const CollectionResilience& counters() const noexcept {
    return counters_;
  }

  /// Attempt a hand-off of `want` bytes against the session's remaining
  /// byte budget. Failed attempts burn `want` bytes of budget (the
  /// airtime was spent even though the frames were lost) and each retry
  /// burns `retry_backoff_s` of contact time on top; the grant shrinks
  /// with the budget. Returns the bytes that may move (0 = abandoned:
  /// the data stays with its custodian, so byte conservation holds).
  [[nodiscard]] double attempt_handoff(double want, double& budget_bytes);

 private:
  CollectionFaultSpec spec_;
  sim::Rng rng_;
  double data_rate_bps_;
  CollectionResilience counters_;
};

/// Resilience section of a fleet outcome: the node-layer counters summed
/// in node order plus the collection-layer counters, emitted under
/// `"resilience"` in `snipr.fleet.v3`.
struct ResilienceOutcome {
  NodeResilience probing;
  CollectionResilience collection;
  /// Mirror of the network section's delivery ratio when the run had a
  /// collection pass (the Harvest-style reliability headline), else 0.
  double delivery_ratio_under_loss{0.0};
};

/// A fleet run's worth of per-node fault streams. Forked once, in node
/// order, before any partitioning, then handed out one injector per
/// node. Non-copyable so injector spec pointers stay valid for the
/// plan's lifetime.
class FaultPlan {
 public:
  FaultPlan(const FaultSpec& spec, std::size_t nodes);
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] NodeFaultInjector& node(std::size_t i) { return nodes_[i]; }
  [[nodiscard]] const NodeFaultInjector& node(std::size_t i) const {
    return nodes_[i];
  }

  /// The collection pass's stream, forked from the root *after* every
  /// node stream (mirroring how the vehicle flow follows the node
  /// channel forks).
  [[nodiscard]] sim::Rng collection_stream() const noexcept {
    return collection_stream_;
  }

  /// Sum the per-node counters in node order.
  [[nodiscard]] NodeResilience merged_node_counters() const noexcept;

 private:
  FaultSpec spec_;
  std::vector<NodeFaultInjector> nodes_;
  sim::Rng collection_stream_;
};

}  // namespace snipr::fault
