#pragma once

#include <algorithm>
#include <cstdint>

#include "snipr/node/scheduler.hpp"

/// \file skip_run.hpp
/// The run a node takes through a scheduler's two fast-forward steps
/// when its own limits (the schedule walk, the simulator's next event and
/// event budget) allow `max_k` wakeups: k = min(max_k, repeat_bound()),
/// committed through commit_repeats() when positive. Lets a unit test pin
/// a run length at any limit without a node.

namespace snipr::testing {

inline std::int64_t skip_run(node::Scheduler& scheduler,
                             const node::SensorContext& ctx,
                             node::SchedulerDecision verdict,
                             sim::Duration charge, std::int64_t max_k) {
  const std::int64_t k =
      std::min(max_k, scheduler.repeat_bound(ctx, verdict, charge));
  if (k > 0) scheduler.commit_repeats(ctx, verdict, k);
  return k;
}

}  // namespace snipr::testing
