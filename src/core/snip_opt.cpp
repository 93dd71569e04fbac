#include "snipr/core/snip_opt.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace snipr::core {
namespace {

std::vector<double> validated(std::vector<double> duties, sim::Duration epoch,
                              sim::Duration ton) {
  if (duties.empty()) {
    throw std::invalid_argument("SnipOpt: plan must have at least one slot");
  }
  for (const double d : duties) {
    if (d < 0.0 || d > 1.0) {
      throw std::invalid_argument("SnipOpt: duties must lie in [0, 1]");
    }
  }
  if (!(epoch > sim::Duration::zero()) ||
      epoch.count() % static_cast<std::int64_t>(duties.size()) != 0) {
    throw std::invalid_argument(
        "SnipOpt: epoch must divide evenly into the plan");
  }
  if (!(ton > sim::Duration::zero())) {
    throw std::invalid_argument("SnipOpt: ton must be positive");
  }
  return duties;
}

std::vector<bool> positive_slots(const std::vector<double>& duties) {
  std::vector<bool> active(duties.size(), false);
  for (std::size_t s = 0; s < duties.size(); ++s) active[s] = duties[s] > 0.0;
  return active;
}

std::vector<sim::Duration> probing_cycles(const std::vector<double>& duties,
                                          sim::Duration ton) {
  std::vector<sim::Duration> cycles(duties.size(), sim::Duration::zero());
  for (std::size_t s = 0; s < duties.size(); ++s) {
    if (duties[s] > 0.0) {
      cycles[s] = sim::Duration::seconds(ton.to_seconds() / duties[s]);
    }
  }
  return cycles;
}

}  // namespace

SnipOpt::SnipOpt(std::vector<double> duties, sim::Duration epoch,
                 sim::Duration ton)
    : duties_{validated(std::move(duties), epoch, ton)},
      ton_{ton},
      cycles_{probing_cycles(duties_, ton)},
      active_{epoch, positive_slots(duties_)} {}

node::SchedulerDecision SnipOpt::on_wakeup(const node::SensorContext& ctx) {
  const std::size_t slot = active_.slot_clock().slot_of(ctx.now);
  const bool affordable = ctx.budget_used + ton_ <= ctx.budget_limit;
  if (duties_[slot] > 0.0 && affordable) {
    return {.probe = true, .next_wakeup = cycles_[slot]};
  }
  if (!affordable) {
    // Budget spent: sleep to the end of the epoch (it resets there).
    const sim::TimePoint wake = active_.slot_clock().next_epoch_start(ctx.now);
    return {.probe = false,
            .next_wakeup = std::max(wake - ctx.now, sim::Duration::seconds(1))};
  }
  // Idle slot: sleep until the next slot with a positive duty.
  const auto next = next_active_slot(ctx.now);
  if (!next.has_value()) {
    return {.probe = false, .next_wakeup = active_.epoch()};
  }
  return {.probe = false,
          .next_wakeup = std::max(*next - ctx.now, sim::Duration::seconds(1))};
}

std::int64_t SnipOpt::repeat_bound(const node::SensorContext& ctx,
                                   node::SchedulerDecision verdict,
                                   sim::Duration charge) const {
  const contact::SlotClock& clock = active_.slot_clock();
  const std::size_t slot = clock.slot_of(ctx.now);
  const sim::Duration cycle = verdict.next_wakeup;
  // Zero-duty slots hold a zero cycle, which no positive `cycle` equals.
  if (!verdict.probe || cycles_[slot] != cycle) return 0;
  const sim::TimePoint slot_end = clock.next_boundary(ctx.now).start;
  return std::min(node::probes_within_budget(ctx, ton_, charge),
                  node::wakeups_through(
                      ctx.now, cycle,
                      slot_end - sim::Duration::microseconds(1)));
}

}  // namespace snipr::core
