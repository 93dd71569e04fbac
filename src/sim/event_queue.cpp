#include "snipr/sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace snipr::sim {

void EventQueue::schedule(TimePoint at, Callback fn) {
  if (free_.empty()) {
    if (slots_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("EventQueue: slot index space exhausted");
    }
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  slots_[slot].fn = std::move(fn);
  slots_[slot].at = at;
  // A past schedule files at the latest popped time, behind the events
  // pending there (its seq is larger).
  const Key key{std::max(at.count(), popped_), next_seq_++, slot};
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

std::optional<TimePoint> EventQueue::next_time() const {
  if (heap_.empty()) return std::nullopt;
  return slots_[heap_.front().slot].at;
}

std::optional<EventQueue::Popped> EventQueue::pop_due(TimePoint limit) {
  if (heap_.empty()) return std::nullopt;
  const Key top = heap_.front();
  Slot& head = slots_[top.slot];
  if (head.at > limit) return std::nullopt;
  std::optional<Popped> out{Popped{head.at, std::move(head.fn)}};
  popped_ = top.filed;
  free_.push_back(top.slot);
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return out;
  std::size_t hole = 0;
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], last)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = last;
  return out;
}

}  // namespace snipr::sim
