#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "snipr/sim/event_queue.hpp"
#include "snipr/sim/time.hpp"

/// \file reference_event_queue.hpp
/// The event-queue ordering contract written the obvious way, as an
/// executable reference model: pending events in a `std::map` keyed by
/// (timestamp, schedule sequence). `sim::EventQueue` must pop exactly as
/// it does on every schedule/pop interleaving a forward-running
/// simulation can produce — pinned by
/// `property_event_queue_equivalence_test`. It models forward schedules
/// only; the queue's past-schedule filing has its own unit tests.

namespace snipr::testing {

class ReferenceEventQueue {
 public:
  using Callback = sim::EventQueue::Callback;
  using TimePoint = sim::TimePoint;

  void schedule(TimePoint at, Callback fn) {
    events_.emplace(std::make_pair(at, next_seq_++), std::move(fn));
  }

  [[nodiscard]] std::optional<TimePoint> next_time() const {
    if (events_.empty()) return std::nullopt;
    return events_.begin()->first.first;
  }

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  struct Popped {
    TimePoint at;
    Callback fn;
  };
  [[nodiscard]] std::optional<Popped> pop_due(TimePoint limit) {
    if (events_.empty() || events_.begin()->first.first > limit) {
      return std::nullopt;
    }
    auto node = events_.extract(events_.begin());
    return Popped{node.key().first, std::move(node.mapped())};
  }
  [[nodiscard]] std::optional<Popped> pop() {
    return pop_due(TimePoint::max());
  }

 private:
  std::map<std::pair<TimePoint, std::uint64_t>, Callback> events_;
  std::uint64_t next_seq_{0};
};

}  // namespace snipr::testing
