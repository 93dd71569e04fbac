#include "snipr/deploy/deployment.hpp"

#include "fleet_inputs.hpp"

namespace snipr::deploy {

NodeOutcome summarize_node(std::size_t node_index,
                           const node::SensorNode& sensor,
                           std::string scheduler_name,
                           std::size_t total_contacts) {
  // Reads the NodeBlock's streaming totals, not the per-epoch history —
  // the fold at each epoch boundary performed the identical double
  // additions in the identical order, so the result is bit-equal whether
  // or not the run retained history (which fleet runs no longer do).
  NodeOutcome n;
  n.node_index = node_index;
  n.scheduler_name = std::move(scheduler_name);
  const node::NodeBlock& block = sensor.block();
  const std::size_t lane = sensor.lane();
  n.epochs = block.epochs(lane);
  if (n.epochs > 0) {
    const auto count = static_cast<double>(n.epochs);
    n.mean_zeta_s = block.sum_zeta_s(lane) / count;
    n.mean_phi_s = block.sum_phi_s(lane) / count;
    n.mean_bytes_uploaded = block.sum_bytes(lane) / count;
    n.mean_contacts_probed = block.sum_contacts(lane) / count;
  }
  if (total_contacts > 0) {
    n.miss_ratio = 1.0 - static_cast<double>(block.probed_sessions(lane)) /
                             static_cast<double>(total_contacts);
  }
  n.mean_delivery_latency_s = sensor.buffer().mean_delivery_latency_s();
  return n;
}

void finalize_outcome(DeploymentOutcome& outcome) {
  outcome.total_zeta_s = 0.0;
  outcome.total_phi_s = 0.0;
  outcome.total_bytes = 0.0;
  stats::OnlineStats zeta;
  for (const NodeOutcome& n : outcome.nodes) {
    outcome.total_zeta_s += n.mean_zeta_s;
    outcome.total_phi_s += n.mean_phi_s;
    outcome.total_bytes += n.mean_bytes_uploaded;
    zeta.add(n.mean_zeta_s);
  }
  if (zeta.count() > 0) set_zeta_spread(outcome, zeta);
}

}  // namespace snipr::deploy
