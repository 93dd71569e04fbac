#include "snipr/core/strategy.hpp"

#include <utility>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_opt.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/model/epoch_model.hpp"

namespace snipr::core {

std::string_view strategy_id(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kSnipAt:
      return "at";
    case Strategy::kSnipOpt:
      return "opt";
    case Strategy::kSnipRh:
      return "rh";
    case Strategy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

std::string_view strategy_name(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kSnipAt:
      return "SNIP-AT";
    case Strategy::kSnipOpt:
      return "SNIP-OPT";
    case Strategy::kSnipRh:
      return "SNIP-RH";
    case Strategy::kAdaptive:
      return "SNIP-RH/adaptive";
  }
  return "unknown";
}

std::optional<Strategy> parse_strategy(std::string_view id) noexcept {
  for (const Strategy strategy : all_strategies()) {
    if (id == strategy_id(strategy) || id == strategy_name(strategy)) {
      return strategy;
    }
  }
  return std::nullopt;
}

SchedulerMaker plan_scheduler(const RoadsideScenario& scenario,
                              Strategy strategy, double zeta_target_s,
                              double phi_max_s,
                              const ExplorationConfig& exploration) {
  const sim::Duration ton = sim::Duration::seconds(scenario.snip.ton_s);
  switch (strategy) {
    case Strategy::kSnipAt: {
      const double duty =
          scenario.make_model().snip_at(zeta_target_s, phi_max_s).duties[0];
      return [duty, ton] { return std::make_unique<SnipAt>(duty, ton); };
    }
    case Strategy::kSnipOpt: {
      std::vector<double> duties =
          scenario.make_model().snip_opt(zeta_target_s, phi_max_s).duties;
      const sim::Duration epoch = scenario.profile.epoch();
      return [duties = std::move(duties), epoch, ton] {
        return std::make_unique<SnipOpt>(duties, epoch, ton);
      };
    }
    case Strategy::kSnipRh: {
      SnipRhConfig config;
      config.ton = ton;
      config.initial_tcontact_s = scenario.tcontact_s;
      return [mask = scenario.rush_mask, config] {
        return std::make_unique<SnipRh>(mask, config);
      };
    }
    case Strategy::kAdaptive: {
      AdaptiveSnipRhConfig config;
      config.rh.ton = ton;
      config.rh.initial_tcontact_s = scenario.tcontact_s;
      config.exploration = exploration;
      const sim::Duration epoch = scenario.profile.epoch();
      const std::size_t slots = scenario.profile.slot_count();
      return [epoch, slots, config] {
        return std::make_unique<AdaptiveSnipRh>(epoch, slots, config);
      };
    }
  }
  return [] { return std::unique_ptr<node::Scheduler>{}; };
}

std::unique_ptr<node::Scheduler> make_scheduler(
    const RoadsideScenario& scenario, Strategy strategy, double zeta_target_s,
    double phi_max_s, const ExplorationConfig& exploration) {
  return plan_scheduler(scenario, strategy, zeta_target_s, phi_max_s,
                        exploration)();
}

}  // namespace snipr::core
