#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "snipr/contact/schedule.hpp"
#include "snipr/node/scheduler.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/radio/link.hpp"
#include "snipr/sim/time.hpp"

/// \file lone_node.hpp
/// One sensor node run alone on its own clock, and its summary.
///
/// A node's outcome depends only on its scheduler, contacts, link,
/// config and fault stream: it never interacts with another node while
/// probing. So every single-node experiment
/// (core::run_experiment_on_schedule) and every fleet node (deploy's
/// shard runner, run_shards) runs through run_lone_node, and both report
/// the means of summarize().

namespace snipr::fault {
class NodeFaultInjector;
}  // namespace snipr::fault

namespace snipr::node {

/// What a lone node's run leaves behind.
struct LoneNodeRun {
  /// One entry per complete epoch.
  std::vector<EpochStats> per_epoch;
  /// The probed-contact log; empty unless `config.record_probed_contacts`.
  std::vector<ProbedContactRecord> probed;
  /// Contacts probed over the run, whether or not the log was kept.
  std::uint64_t probed_sessions{0};
  /// Contacts in the schedule the node ran over.
  std::size_t total_contacts{0};
  double mean_delivery_latency_s{0.0};
  /// Events the node executed up to the horizon.
  std::size_t events{0};
};

/// Run a node driven by `scheduler` over `schedule` alone from time zero
/// to `horizon`. The per-epoch history is always recorded, reserved for
/// the horizon's epochs. `faults` (null = none) is the node's only random
/// stream and must outlive the call. Throws std::invalid_argument on a
/// null schedule or an unusable `config`.
[[nodiscard]] LoneNodeRun run_lone_node(
    Scheduler& scheduler,
    std::shared_ptr<const contact::ContactSchedule> schedule,
    const radio::LinkParams& link, SensorNodeConfig config,
    sim::Duration horizon, fault::NodeFaultInjector* faults = nullptr);

/// A node's run as per-epoch means over its counted epochs, plus two
/// whole-run figures. core::RunResult and deploy::NodeOutcome extend it.
struct NodeSummary {
  std::size_t epochs{0};          ///< epochs counted (warm-up excluded)
  double mean_zeta_s{0.0};        ///< probed capacity per epoch
  double mean_phi_s{0.0};         ///< probing overhead per epoch
  double mean_bytes_uploaded{0.0};
  double mean_contacts_probed{0.0};
  double mean_wakeups{0.0};
  double probing_energy_j{0.0};   ///< mean Joules per epoch, probing
  double transfer_energy_j{0.0};  ///< mean Joules per epoch, transfer
  double miss_ratio{0.0};         ///< 1 − probed/total contacts (whole run)
  double mean_delivery_latency_s{0.0};
};

/// The means over `run.per_epoch[warmup_epochs..]`, each summed in epoch
/// order and divided once (all zero when no epoch is counted).
[[nodiscard]] NodeSummary summarize(const LoneNodeRun& run,
                                    std::size_t warmup_epochs = 0);

}  // namespace snipr::node
