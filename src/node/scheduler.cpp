#include "snipr/node/scheduler.hpp"

#include <limits>

namespace snipr::node {

std::int64_t Scheduler::repeat_bound(const SensorContext& /*ctx*/,
                                     SchedulerDecision /*verdict*/,
                                     sim::Duration /*charge*/) const {
  return 0;
}

void Scheduler::commit_repeats(const SensorContext& /*ctx*/,
                               SchedulerDecision /*verdict*/,
                               std::int64_t /*k*/) {}

void Scheduler::on_probe_detected(sim::TimePoint /*when*/) {}

void Scheduler::on_contact_probed(const ProbedContactObservation& /*obs*/) {}

void Scheduler::on_epoch_start(std::int64_t /*epoch_index*/) {}

std::int64_t probes_within_budget(const SensorContext& ctx, sim::Duration ton,
                                  sim::Duration charge) noexcept {
  if (ctx.budget_used + ton > ctx.budget_limit) return 0;
  if (!(charge > sim::Duration::zero())) {
    return std::numeric_limits<std::int64_t>::max();
  }
  // used_j + ton <= limit  <=>  (j−1)·charge <= limit − ton − used.
  const sim::Duration headroom = ctx.budget_limit - ton - ctx.budget_used;
  return headroom.count() / charge.count() + 1;
}

std::int64_t wakeups_through(sim::TimePoint now, sim::Duration cycle,
                             sim::TimePoint last) noexcept {
  if (last < now) return 0;
  return (last - now).count() / cycle.count();
}

}  // namespace snipr::node
