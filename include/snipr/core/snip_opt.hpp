#pragma once

#include <optional>
#include <vector>

#include "snipr/core/rush_hour_mask.hpp"
#include "snipr/node/scheduler.hpp"
#include "snipr/sim/time.hpp"

/// \file snip_opt.hpp
/// SNIP-OPT: executes a precomputed per-slot duty plan (Sec. V).
///
/// The paper's optimization-based mechanism assumes the exact contact
/// arrival process is known offline; the two-step water-filling solver
/// (snipr::model::maximize_capacity / minimize_overhead) produces the
/// per-slot duties and this scheduler simply executes them, slot by slot,
/// stopping when the epoch's energy budget runs out.

namespace snipr::core {

class SnipOpt final : public node::Scheduler {
 public:
  /// \param duties   one duty in [0, 1] per slot (from EpochModel::snip_opt).
  /// \param epoch    epoch length; must divide evenly into duties.size().
  /// \param ton      SNIP's per-wakeup radio-on time.
  SnipOpt(std::vector<double> duties, sim::Duration epoch, sim::Duration ton);

  [[nodiscard]] node::SchedulerDecision on_wakeup(
      const node::SensorContext& ctx) override;
  /// A probing verdict holds to the end of its slot or of the budget.
  [[nodiscard]] std::int64_t repeat_bound(const node::SensorContext& ctx,
                                          node::SchedulerDecision verdict,
                                          sim::Duration charge) const override;
  [[nodiscard]] std::string name() const override { return "SNIP-OPT"; }

  [[nodiscard]] const std::vector<double>& duties() const noexcept {
    return duties_;
  }
  /// Start of the first slot with a positive duty after the slot
  /// containing `t`; nullopt for an all-zero plan.
  [[nodiscard]] std::optional<sim::TimePoint> next_active_slot(
      sim::TimePoint t) const noexcept {
    return active_.next_rush_after(t);
  }

 private:
  std::vector<double> duties_;
  sim::Duration ton_;
  /// Per slot, the probing cycle Ton/d (zero where d is zero).
  std::vector<sim::Duration> cycles_;
  /// The slots with a positive duty, for constant-time slot lookups.
  RushHourMask active_;
};

}  // namespace snipr::core
