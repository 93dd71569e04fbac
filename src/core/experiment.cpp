#include "snipr/core/experiment.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "snipr/node/lone_node.hpp"
#include "snipr/sim/rng.hpp"

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
  node::SensorNodeConfig node_cfg;
  node_cfg.ton = sim::Duration::seconds(scenario.snip.ton_s);
  node_cfg.epoch = scenario.profile.epoch();
  node_cfg.budget_limit = sim::Duration::seconds(config.phi_max_s);
  node_cfg.sensing_rate_bps = config.sensing_rate_bps;
  node_cfg.record_probed_contacts = false;  // the count is enough

  node::LoneNodeRun run = node::run_lone_node(
      scheduler, std::move(schedule), scenario.link, node_cfg,
      scenario.profile.epoch() * static_cast<std::int64_t>(config.epochs));

  RunResult result;
  static_cast<node::NodeSummary&>(result) =
      node::summarize(run, config.warmup_epochs);
  result.scheduler_name = scheduler.name();
  result.per_epoch = std::move(run.per_epoch);
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
