#include "snipr/deploy/deployment.hpp"

#include "snipr/core/json_writer.hpp"
#include "fleet_inputs.hpp"

namespace snipr::deploy {

void FleetTotals::add(const node::NodeSummary& node) noexcept {
  zeta.add(node.mean_zeta_s);
  zeta_s += node.mean_zeta_s;
  phi_s += node.mean_phi_s;
  bytes += node.mean_bytes_uploaded;
}

FleetAggregate FleetTotals::aggregate() const noexcept {
  FleetAggregate out;
  out.total_zeta_s = zeta_s;
  out.total_phi_s = phi_s;
  out.total_bytes = bytes;
  if (zeta.count() == 0) return out;
  out.min_zeta_s = zeta.min();
  out.max_zeta_s = zeta.max();
  out.mean_zeta_s = zeta.mean();
  out.zeta_variance = zeta.variance();
  out.zeta_stddev_s = zeta.stddev();
  const double mean_sq = out.mean_zeta_s * out.mean_zeta_s;
  const double denom = mean_sq + out.zeta_variance;
  out.zeta_fairness = denom > 0.0 ? mean_sq / denom : 1.0;
  return out;
}

void append_aggregate(std::string& out, const FleetAggregate& a) {
  using core::json::append_field;
  append_field(out, "total_zeta_s", a.total_zeta_s);
  append_field(out, "total_phi_s", a.total_phi_s);
  append_field(out, "total_bytes", a.total_bytes);
  append_field(out, "mean_zeta_s", a.mean_zeta_s);
  append_field(out, "zeta_variance", a.zeta_variance);
  append_field(out, "zeta_stddev_s", a.zeta_stddev_s);
  append_field(out, "min_zeta_s", a.min_zeta_s);
  append_field(out, "max_zeta_s", a.max_zeta_s);
  append_field(out, "zeta_fairness", a.zeta_fairness);
}

void finalize_outcome(DeploymentOutcome& outcome) {
  FleetTotals totals;
  for (const NodeOutcome& n : outcome.nodes) totals.add(n);
  static_cast<FleetAggregate&>(outcome) = totals.aggregate();
}

}  // namespace snipr::deploy
