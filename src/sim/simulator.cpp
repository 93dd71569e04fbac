#include "snipr/sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace snipr::sim {

Simulator::Simulator(std::uint64_t seed) : rng_{seed} {}

void Simulator::schedule_at(TimePoint at, Callback fn) {
  if (at < now_) {
    throw std::logic_error("Simulator::schedule_at: time is in the past");
  }
  queue_.schedule(at, std::move(fn));
}

void Simulator::schedule_after(Duration delay, Callback fn) {
  if (delay.is_negative()) {
    throw std::logic_error("Simulator::schedule_after: negative delay");
  }
  queue_.schedule(now_ + delay, std::move(fn));
}

std::size_t Simulator::drain(TimePoint limit, std::size_t max_events) {
  // A callback may itself run the simulator; its drain must hand the
  // enclosing one back its bounds and count.
  const TimePoint outer_limit = limit_;
  const std::size_t outer_max = max_events_;
  const std::size_t outer_executed = executed_;
  limit_ = limit;
  max_events_ = max_events;
  executed_ = 0;
  while (executed_ < max_events_) {
    auto popped = queue_.pop_due(limit);
    if (!popped.has_value()) break;
    now_ = popped->at;
    popped->fn();
    ++executed_;
  }
  const std::size_t executed = executed_;
  limit_ = outer_limit;
  max_events_ = outer_max;
  executed_ = outer_executed;
  return executed;
}

TimePoint Simulator::fast_forward_limit() const {
  if (executed_ >= max_events_) return now_;
  TimePoint last = limit_;
  if (const auto next = queue_.next_time()) {
    last = std::min(last, *next - Duration::microseconds(1));
  }
  return last;
}

void Simulator::fast_forward(TimePoint to, std::size_t events) {
  if (to < now_ || to > fast_forward_limit() ||
      events > fast_forward_budget()) {
    throw std::logic_error(
        "Simulator::fast_forward: beyond the next event or the run bound");
  }
  now_ = to;
  executed_ += events;
}

std::size_t Simulator::run_until(TimePoint until) {
  if (until < now_) {
    throw std::logic_error("Simulator::run_until: target is in the past");
  }
  const std::size_t n =
      drain(until, std::numeric_limits<std::size_t>::max());
  now_ = until;  // idle advance
  return n;
}

std::size_t Simulator::step(std::size_t max_events) {
  return drain(TimePoint::max(), max_events);
}

}  // namespace snipr::sim
