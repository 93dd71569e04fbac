#include "snipr/deploy/deployment.hpp"

#include "fleet_inputs.hpp"

namespace snipr::deploy {

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
