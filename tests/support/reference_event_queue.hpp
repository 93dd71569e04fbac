#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "snipr/sim/event_queue.hpp"
#include "snipr/sim/time.hpp"

/// \file reference_event_queue.hpp
/// The flat binary min-heap EventQueue (PR 5's implementation), kept
/// verbatim as an executable reference model. The timing-wheel
/// `sim::EventQueue` must be observationally equivalent to it on every
/// schedule/cancel/pop interleaving a forward-running simulation can
/// produce — pinned by `property_event_queue_equivalence_test` — and
/// `bench_perf_kernels`' churn benchmark races the two on the mixed
/// schedule/cancel workload. Heap-internal observables (tombstone
/// counts) are intentionally not part of the equivalence surface.

namespace snipr::testing {

/// Binary min-heap pending-event set: O(log n) schedule/pop, O(1)
/// cancel via generation-tagged tombstones, lazy head drops and bulk
/// compaction when tombstones outnumber live entries.
class ReferenceEventQueue {
 public:
  using Callback = sim::EventQueue::Callback;
  using EventId = sim::EventId;
  using TimePoint = sim::TimePoint;

  EventId schedule(TimePoint at, Callback fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (slots_.size() > static_cast<std::size_t>(
                              std::numeric_limits<std::uint32_t>::max())) {
        throw std::length_error(
            "ReferenceEventQueue: slot index space exhausted");
      }
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].fn = std::move(fn);
    const std::uint32_t generation = slots_[slot].generation;
    heap_.push_back(Entry{at, next_seq_++, slot, generation});
    sift_up(heap_.size() - 1);
    ++live_;
    return pack(generation, slot);
  }

  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (generation == 0) return false;
    if (slot >= slots_.size()) return false;
    if (slots_[slot].generation != generation) return false;
    retire(slot);
    maybe_compact();
    return true;
  }

  [[nodiscard]] std::optional<TimePoint> next_time() const {
    drop_stale_head();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().at;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  struct Popped {
    TimePoint at;
    EventId id{sim::kInvalidEventId};
    Callback fn;
  };
  [[nodiscard]] std::optional<Popped> pop() {
    drop_stale_head();
    if (heap_.empty()) return std::nullopt;
    const Entry top = heap_.front();
    Popped out{top.at, pack(top.generation, top.slot),
               std::move(slots_[top.slot].fn)};
    retire(top.slot);
    remove_root();
    return out;
  }

 private:
  struct Slot {
    Callback fn;
    std::uint32_t generation{1};
  };

  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static constexpr std::size_t kCompactionFloor = 64;

  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  [[nodiscard]] static EventId pack(std::uint32_t generation,
                                    std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  [[nodiscard]] bool stale(const Entry& e) const noexcept {
    return slots_[e.slot].generation != e.generation;
  }

  void retire(std::uint32_t slot) {
    slots_[slot].fn.reset();
    if (++slots_[slot].generation == 0) slots_[slot].generation = 1;
    free_.push_back(slot);
    --live_;
  }

  void sift_up(std::size_t i) const {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) const {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      std::size_t smallest = left;
      if (right < n && before(heap_[right], heap_[left])) smallest = right;
      if (!before(heap_[smallest], heap_[i])) break;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  void remove_root() const {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  void drop_stale_head() const {
    while (!heap_.empty() && stale(heap_.front())) {
      remove_root();
    }
  }

  void maybe_compact() {
    if (heap_.size() < kCompactionFloor) return;
    if (heap_.size() <= 2 * live_) return;
    const auto dead = [this](const Entry& e) { return stale(e); };
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead),
                heap_.end());
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }

  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
};

}  // namespace snipr::testing
