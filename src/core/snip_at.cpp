#include "snipr/core/snip_at.hpp"

#include <cmath>
#include <stdexcept>

namespace snipr::core {

SnipAt::SnipAt(double duty, sim::Duration ton, sim::Duration idle_check)
    : duty_{duty}, ton_{ton}, cycle_{}, idle_check_{idle_check} {
  if (!(duty > 0.0) || duty > 1.0) {
    throw std::invalid_argument("SnipAt: duty must be in (0, 1]");
  }
  if (!(ton > sim::Duration::zero())) {
    throw std::invalid_argument("SnipAt: ton must be positive");
  }
  if (!(idle_check > sim::Duration::zero())) {
    throw std::invalid_argument("SnipAt: idle_check must be positive");
  }
  cycle_ = sim::Duration::seconds(ton.to_seconds() / duty);
}

node::SchedulerDecision SnipAt::on_wakeup(const node::SensorContext& ctx) {
  // The duty is sized offline; the only runtime gate is the budget
  // (condition: one more full wakeup must still fit).
  const bool affordable = ctx.budget_used + ton_ <= ctx.budget_limit;
  if (!affordable) {
    return {.probe = false, .next_wakeup = idle_check_};
  }
  return {.probe = true, .next_wakeup = cycle_};
}

std::int64_t SnipAt::repeat_bound(const node::SensorContext& ctx,
                                  node::SchedulerDecision verdict,
                                  sim::Duration charge) const {
  if (!verdict.probe || verdict.next_wakeup != cycle_) return 0;
  return node::probes_within_budget(ctx, ton_, charge);
}

}  // namespace snipr::core
