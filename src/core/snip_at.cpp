#include "snipr/core/snip_at.hpp"

#include <cmath>
#include <stdexcept>

namespace snipr::core {
namespace {

/// CPU re-check period once the budget is exhausted.
constexpr sim::Duration kIdleCheck = sim::Duration::minutes(10);

}  // namespace

SnipAt::SnipAt(double duty, sim::Duration ton)
    : duty_{duty}, ton_{ton}, cycle_{} {
  if (!(duty > 0.0) || duty > 1.0) {
    throw std::invalid_argument("SnipAt: duty must be in (0, 1]");
  }
  if (!(ton > sim::Duration::zero())) {
    throw std::invalid_argument("SnipAt: ton must be positive");
  }
  cycle_ = sim::Duration::seconds(ton.to_seconds() / duty);
}

node::SchedulerDecision SnipAt::on_wakeup(const node::SensorContext& ctx) {
  // The duty is sized offline; the only runtime gate is the budget
  // (condition: one more full wakeup must still fit).
  const bool affordable = ctx.budget_used + ton_ <= ctx.budget_limit;
  if (!affordable) {
    return {.probe = false, .next_wakeup = kIdleCheck};
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
