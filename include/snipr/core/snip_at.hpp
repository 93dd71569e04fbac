#pragma once

#include "snipr/node/scheduler.hpp"

/// \file snip_at.hpp
/// SNIP-AT: the All-Time scheduling baseline (Sec. IV of the paper).
///
/// SNIP runs in every slot at one fixed duty-cycle d0, "well selected so
/// that the probed contact capacity is just enough to upload its sensed
/// data" — in the paper's simulations d0 is computed offline from the
/// environment (EpochModel::snip_at) and baked in. The only runtime gate
/// is the per-epoch energy budget: probing halts once Φmax is spent.

namespace snipr::core {

class SnipAt final : public node::Scheduler {
 public:
  /// \param duty  d0 in (0, 1]; use EpochModel::snip_at to size it.
  /// \param ton   SNIP's per-wakeup radio-on time.
  explicit SnipAt(double duty, sim::Duration ton);

  [[nodiscard]] node::SchedulerDecision on_wakeup(
      const node::SensorContext& ctx) override;
  /// A probing verdict changes only when the budget runs out.
  [[nodiscard]] std::int64_t repeat_bound(const node::SensorContext& ctx,
                                          node::SchedulerDecision verdict,
                                          sim::Duration charge) const override;
  [[nodiscard]] std::string name() const override { return "SNIP-AT"; }

  [[nodiscard]] double duty() const noexcept { return duty_; }
  [[nodiscard]] sim::Duration cycle() const noexcept { return cycle_; }

 private:
  double duty_;
  sim::Duration ton_;
  sim::Duration cycle_;
};

}  // namespace snipr::core
