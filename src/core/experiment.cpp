#include "snipr/core/experiment.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "snipr/radio/channel.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/sim/simulator.hpp"

namespace snipr::core {

RunResult run_experiment_on_schedule(const RoadsideScenario& scenario,
                                     contact::ContactSchedule schedule,
                                     node::Scheduler& scheduler,
                                     const ExperimentConfig& config) {
  return run_experiment_on_schedule(
      scenario,
      std::make_shared<const contact::ContactSchedule>(std::move(schedule)),
      scheduler, config);
}

RunResult run_experiment_on_schedule(
    const RoadsideScenario& scenario,
    std::shared_ptr<const contact::ContactSchedule> schedule,
    node::Scheduler& scheduler, const ExperimentConfig& config) {
  // Configs that would report ζ = Φ = ρ = 0 as if they had run.
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string{"ExperimentConfig::"} + what);
  };
  if (config.epochs == 0) reject("epochs must be > 0");
  if (config.warmup_epochs >= config.epochs) {
    reject("warmup_epochs must be < epochs");
  }
  if (!(std::isfinite(config.phi_max_s) && config.phi_max_s >= 0.0)) {
    reject("phi_max_s must be finite and >= 0");
  }
  if (!(std::isfinite(config.sensing_rate_bps) &&
        config.sensing_rate_bps >= 0.0)) {
    reject("sensing_rate_bps must be finite and >= 0");
  }
  sim::Simulator simulator{config.seed};
  radio::Channel channel{std::move(schedule), scenario.link,
                         simulator.rng().fork()};
  const std::size_t total_contacts = channel.schedule().size();
  node::MobileNode sink;

  node::SensorNodeConfig node_cfg;
  node_cfg.ton = sim::Duration::seconds(scenario.snip.ton_s);
  node_cfg.epoch = scenario.profile.epoch();
  node_cfg.budget_limit = sim::Duration::seconds(config.phi_max_s);
  node_cfg.sensing_rate_bps = config.sensing_rate_bps;
  node_cfg.expected_epochs = config.epochs;

  node::SensorNode sensor{simulator, channel, sink, scheduler, node_cfg};
  sensor.start();

  const sim::Duration horizon =
      scenario.profile.epoch() * static_cast<std::int64_t>(config.epochs);
  simulator.run_until(sim::TimePoint::zero() + horizon);

  RunResult result;
  result.scheduler_name = scheduler.name();
  result.per_epoch = sensor.epoch_history();
  const std::size_t first = config.warmup_epochs;
  std::size_t counted = 0;
  for (std::size_t e = first; e < result.per_epoch.size(); ++e) {
    const node::EpochStats& s = result.per_epoch[e];
    result.mean_zeta_s += s.zeta.to_seconds();
    result.mean_phi_s += s.phi.to_seconds();
    result.mean_bytes_uploaded += s.bytes_uploaded;
    result.mean_contacts_probed += static_cast<double>(s.contacts_probed);
    result.mean_wakeups += static_cast<double>(s.wakeups);
    result.probing_energy_j += s.probing_energy_j;
    result.transfer_energy_j += s.transfer_energy_j;
    ++counted;
  }
  result.epochs = counted;
  if (counted > 0) {
    const auto n = static_cast<double>(counted);
    result.mean_zeta_s /= n;
    result.mean_phi_s /= n;
    result.mean_bytes_uploaded /= n;
    result.mean_contacts_probed /= n;
    result.mean_wakeups /= n;
    result.probing_energy_j /= n;
    result.transfer_energy_j /= n;
  }
  if (total_contacts > 0) {
    result.miss_ratio =
        1.0 - static_cast<double>(sensor.probed_contacts().size()) /
                  static_cast<double>(total_contacts);
  }
  result.mean_delivery_latency_s = sensor.buffer().mean_delivery_latency_s();
  return result;
}

RunResult run_experiment(const RoadsideScenario& scenario,
                         node::Scheduler& scheduler,
                         const ExperimentConfig& config) {
  sim::Rng rng{config.seed};
  contact::ContactSchedule schedule =
      scenario.make_schedule(config.epochs, config.jitter, rng);
  return run_experiment_on_schedule(scenario, std::move(schedule), scheduler,
                                    config);
}

}  // namespace snipr::core
