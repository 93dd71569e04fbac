#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "snipr/core/exploration_policy.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/node/scheduler.hpp"

/// \file strategy.hpp
/// The probing strategies of the paper as a closed enum, plus the one
/// canonical way to instantiate a scheduler for a strategy.
///
/// Before this existed, `snipr_cli`, `figure_helpers.hpp` and every bench
/// driver hand-rolled the same plan-then-construct dance (fluid model ->
/// duty plan -> SnipAt/SnipOpt/SnipRh/AdaptiveSnipRh). They now all call
/// `make_scheduler`, so a change to how a mechanism is parameterised lands
/// in one place.
///
/// A plan depends only on (environment, ζtarget, Φmax), never on the node
/// that runs it, so a fleet plans once: `plan_scheduler` solves the fluid
/// model up front and hands back a maker that only constructs.
/// `make_scheduler` is that maker called once.

namespace snipr::core {

enum class Strategy {
  kSnipAt,    ///< uniform duty (Sec. V-A baseline)
  kSnipOpt,   ///< per-slot optimal duties from the fluid model (Sec. V-B)
  kSnipRh,    ///< rush-hour gated probing, the paper's contribution
  kAdaptive,  ///< SNIP-RH with online rush-hour learning (Sec. VII-B)
};

/// All strategies, in canonical (paper) order.
[[nodiscard]] constexpr std::array<Strategy, 4> all_strategies() {
  return {Strategy::kSnipAt, Strategy::kSnipOpt, Strategy::kSnipRh,
          Strategy::kAdaptive};
}

/// Stable identifier used in JSON output and CLI flags ("at", "opt",
/// "rh", "adaptive").
[[nodiscard]] std::string_view strategy_id(Strategy strategy) noexcept;

/// Human-readable name ("SNIP-AT", ...).
[[nodiscard]] std::string_view strategy_name(Strategy strategy) noexcept;

/// Inverse of strategy_id; empty optional on unknown input.
[[nodiscard]] std::optional<Strategy> parse_strategy(
    std::string_view id) noexcept;

/// Builds a fresh scheduler on every call.
using SchedulerMaker = std::function<std::unique_ptr<node::Scheduler>()>;

/// Plan `strategy` for one experiment point and return its maker.
///
/// AT and OPT are planned offline against the scenario's fluid model for
/// the given ζtarget and Φmax (exactly the paper's methodology for
/// Figs. 7-8); the solve runs here, once, and the maker builds each
/// scheduler from the captured duties. RH and adaptive take their duty
/// online from the scenario's Ton and contact-length prior and ignore the
/// planning inputs; their maker captures the mask and config.
/// `exploration` applies to kAdaptive only (how the learner keeps sampling
/// slots its adopted mask would otherwise censor); other strategies ignore
/// it, and the default kNone keeps the legacy behaviour.
///
/// The maker holds copies, not references, and only reads them, so it
/// outlives `scenario` and may be called from several threads at once.
/// A plan the scheduler rejects (e.g. a zero SNIP-AT duty) throws from
/// the maker's call, as `make_scheduler` does.
[[nodiscard]] SchedulerMaker plan_scheduler(
    const RoadsideScenario& scenario, Strategy strategy, double zeta_target_s,
    double phi_max_s, const ExplorationConfig& exploration = {});

/// Build the scheduler implementing `strategy` for one experiment point:
/// `plan_scheduler(...)()`.
[[nodiscard]] std::unique_ptr<node::Scheduler> make_scheduler(
    const RoadsideScenario& scenario, Strategy strategy, double zeta_target_s,
    double phi_max_s, const ExplorationConfig& exploration = {});

}  // namespace snipr::core
