#include "snipr/sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace snipr::sim {

EventQueue::EventQueue() {
  head_.fill(kNil);
  tail_.fill(kNil);
}

void EventQueue::link(std::uint32_t bucket, std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.bucket = bucket;
  s.next = kNil;
  s.prev = tail_[bucket];
  if (tail_[bucket] == kNil) {
    head_[bucket] = slot;
    bits_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  } else {
    slots_[tail_[bucket]].next = slot;
  }
  tail_[bucket] = slot;
}

void EventQueue::unlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint32_t bucket = s.bucket;
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    head_[bucket] = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_[bucket] = s.prev;
  }
  if (head_[bucket] == kNil) {
    bits_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }
}

void EventQueue::unlink_head(std::uint32_t bucket) {
  const std::uint32_t slot = head_[bucket];
  const std::uint32_t next = slots_[slot].next;
  head_[bucket] = next;
  if (next != kNil) {
    slots_[next].prev = kNil;
  } else {
    tail_[bucket] = kNil;
    bits_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }
}

void EventQueue::place(std::uint32_t slot) {
  // Every filing tick is >= cur_: schedule() raises past ticks to
  // popped_ >= cur_, and cascades and overflow pulls only ever move cur_
  // to the start of the span holding the ticks they re-file.
  const std::uint64_t tick = slots_[slot].tick;
  const std::uint64_t delta = tick ^ cur_;
  if ((delta >> (kLevelBits * kLevels)) != 0) {
    overflow_push(slot);
    return;
  }
  unsigned level = 0;
  if (delta != 0) {
    level = static_cast<unsigned>(63 - std::countl_zero(delta)) / kLevelBits;
  }
  const auto index = static_cast<std::uint32_t>(
      (tick >> (level * kLevelBits)) & (kBucketsPerLevel - 1));
  link(level * kBucketsPerLevel + index, slot);
}

void EventQueue::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.bucket = kNoBucket;
  // Generation 0 is reserved: it keeps every packed id non-zero (the
  // kInvalidEventId sentinel) and cancel() rejects it outright, so a
  // wrapping slot skips straight from 2^32-1 to 1.
  if (++s.generation == 0) s.generation = 1;
  free_.push_back(slot);
  --live_;
}

bool EventQueue::overflow_before(std::uint32_t a,
                                 std::uint32_t b) const noexcept {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  if (x.tick != y.tick) return x.tick < y.tick;
  return x.seq < y.seq;
}

void EventQueue::overflow_sift_up(std::size_t index) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!overflow_before(overflow_[index], overflow_[parent])) break;
    std::swap(overflow_[index], overflow_[parent]);
    slots_[overflow_[index]].heap_index = static_cast<std::uint32_t>(index);
    slots_[overflow_[parent]].heap_index = static_cast<std::uint32_t>(parent);
    index = parent;
  }
}

void EventQueue::overflow_sift_down(std::size_t index) {
  const std::size_t n = overflow_.size();
  for (;;) {
    const std::size_t left = 2 * index + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    std::size_t smallest = left;
    if (right < n && overflow_before(overflow_[right], overflow_[left])) {
      smallest = right;
    }
    if (!overflow_before(overflow_[smallest], overflow_[index])) break;
    std::swap(overflow_[index], overflow_[smallest]);
    slots_[overflow_[index]].heap_index = static_cast<std::uint32_t>(index);
    slots_[overflow_[smallest]].heap_index =
        static_cast<std::uint32_t>(smallest);
    index = smallest;
  }
}

void EventQueue::overflow_push(std::uint32_t slot) {
  slots_[slot].bucket = kOverflowBucket;
  slots_[slot].heap_index = static_cast<std::uint32_t>(overflow_.size());
  overflow_.push_back(slot);
  overflow_sift_up(overflow_.size() - 1);
}

void EventQueue::overflow_remove(std::size_t index) {
  const std::uint32_t last = overflow_.back();
  overflow_.pop_back();
  if (index == overflow_.size()) return;
  overflow_[index] = last;
  slots_[last].heap_index = static_cast<std::uint32_t>(index);
  overflow_sift_down(index);
  overflow_sift_up(index);
}

unsigned EventQueue::find_first_from(unsigned level,
                                     unsigned from) const noexcept {
  if (from >= kBucketsPerLevel) return kBucketsPerLevel;
  const std::uint64_t* words = bits_.data() + level * kWordsPerLevel;
  unsigned word = from >> 6;
  std::uint64_t mask = words[word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (mask != 0) {
      return word * 64 + static_cast<unsigned>(std::countr_zero(mask));
    }
    if (++word == kWordsPerLevel) return kBucketsPerLevel;
    mask = words[word];
  }
}

void EventQueue::cascade(std::uint32_t bucket) {
  std::uint32_t slot = head_[bucket];
  head_[bucket] = kNil;
  tail_[bucket] = kNil;
  bits_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  // List order is schedule order; re-filing appends, so FIFO ties at
  // equal timestamps keep their relative order through every cascade.
  while (slot != kNil) {
    const std::uint32_t next = slots_[slot].next;
    place(slot);
    slot = next;
  }
}

void EventQueue::pull_overflow() {
  const std::uint64_t span =
      slots_[overflow_.front()].tick >> (kLevelBits * kLevels);
  cur_ = span << (kLevelBits * kLevels);
  // Heap pop order is (tick, seq), so same-tick events enter their
  // bucket in schedule order.
  while (!overflow_.empty() &&
         (slots_[overflow_.front()].tick >> (kLevelBits * kLevels)) == span) {
    const std::uint32_t slot = overflow_.front();
    overflow_remove(0);
    place(slot);
  }
}

std::uint32_t EventQueue::peek_head() const {
  if (peek_ != kNil) return peek_;
  if (live_ == 0) return kNil;
  // Level 0 holds exactly one tick per bucket, in FIFO order, and every
  // level-0 tick precedes anything filed higher up — the first occupied
  // bucket's head is the minimum outright.
  const auto digit0 = static_cast<unsigned>(cur_ & (kBucketsPerLevel - 1));
  const unsigned index0 = find_first_from(0, digit0);
  if (index0 < kBucketsPerLevel) {
    peek_ = head_[index0];
    return peek_;
  }
  // Higher levels are strictly ordered by span: the first occupied
  // bucket of the lowest occupied level covers the earliest span. Its
  // list holds many ticks, so scan it for the (at, seq) minimum — the
  // same list the pop path is about to cascade anyway.
  for (unsigned level = 1; level < kLevels; ++level) {
    const unsigned digit = static_cast<unsigned>(
        (cur_ >> (level * kLevelBits)) & (kBucketsPerLevel - 1));
    const unsigned index = find_first_from(level, digit + 1);
    if (index >= kBucketsPerLevel) continue;
    std::uint32_t best = head_[level * kBucketsPerLevel + index];
    for (std::uint32_t s = slots_[best].next; s != kNil; s = slots_[s].next) {
      if (slots_[s].tick < slots_[best].tick) best = s;
    }
    peek_ = best;
    return peek_;
  }
  // Wheels empty: everything pending sits beyond the horizon, and the
  // overflow heap's root is the (at, seq) minimum.
  if (overflow_.empty()) return kNil;
  peek_ = overflow_.front();
  return peek_;
}

EventId EventQueue::schedule(TimePoint at, Callback fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    // Index kNil is the list terminator, so it can never name a slot.
    if (slots_.size() >= kNil) {
      throw std::length_error("EventQueue: slot index space exhausted");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.at = at;
  // A past schedule files at the latest popped tick, behind the events
  // pending there (its seq is larger).
  const std::uint64_t requested = to_tick(at);
  s.tick = std::max(requested, popped_);
  s.seq = next_seq_++;
  const std::uint32_t generation = s.generation;
  if (front_ != kNil && s.tick <= slots_[front_].tick) {
    // Not later than the front event: demote it, so the front stays
    // strictly earlier than everything filed in the wheel. It precedes
    // every wheel event, so it becomes the wheel's head.
    place(front_);
    peek_ = front_;
    front_ = kNil;
  }
  // Only a forward schedule strictly earlier than everything pending
  // takes the front slot; a tie goes to the event scheduled first.
  bool admit = front_ == kNil && requested >= popped_;
  if (admit) {
    const std::uint32_t head = peek_head();
    admit = head == kNil || s.tick < slots_[head].tick;
  }
  if (admit) {
    front_ = slot;
  } else {
    place(slot);
    // A strictly earlier tick takes over the cached head; a tie keeps
    // the incumbent (lower seq). An unknown cache stays unknown.
    if (peek_ != kNil && s.tick < slots_[peek_].tick) peek_ = slot;
  }
  ++live_;
  return pack(generation, slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0) return false;  // kInvalidEventId and friends
  if (slot >= slots_.size()) return false;
  if (slots_[slot].generation != generation) return false;
  if (slot == front_) {
    front_ = kNil;
  } else {
    if (slot == peek_) peek_ = kNil;
    if (slots_[slot].bucket == kOverflowBucket) {
      overflow_remove(slots_[slot].heap_index);
    } else {
      unlink(slot);
    }
  }
  retire(slot);
  return true;
}

std::optional<TimePoint> EventQueue::next_time() const {
  const std::uint32_t head = front_ != kNil ? front_ : peek_head();
  if (head == kNil) return std::nullopt;
  return slots_[head].at;
}

std::optional<EventQueue::Popped> EventQueue::pop() {
  return pop_due(TimePoint::max());
}

std::optional<EventQueue::Popped> EventQueue::pop_due(TimePoint limit) {
  if (front_ != kNil) {
    // The front event precedes everything in the wheel: take it without
    // touching the wheel, cur_ or the cached wheel head.
    const std::uint32_t slot = front_;
    if (slots_[slot].at > limit) return std::nullopt;
    front_ = kNil;
    popped_ = slots_[slot].tick;
    Popped out{slots_[slot].at, pack(slots_[slot].generation, slot),
               std::move(slots_[slot].fn)};
    retire(slot);
    return out;
  }
  const std::uint32_t head = peek_head();
  if (head == kNil || slots_[head].at > limit) return std::nullopt;
  // The head is due: now the wheel may actually move, and because the
  // head is the global minimum there is nothing pending between cur_ and
  // it — descend straight from wherever it is filed. An overflow head
  // means the wheels are empty: pull its 2^32-µs span in. A head at
  // level >= 1 is in the first occupied bucket of the lowest occupied
  // level: jump cur_ to that bucket's span and cascade it, repeating
  // until the head surfaces in its single-tick level-0 bucket.
  std::uint32_t bucket = slots_[head].bucket;
  if (bucket == kOverflowBucket) {
    pull_overflow();
    bucket = slots_[head].bucket;
  }
  while (bucket >= kBucketsPerLevel) {
    const unsigned level = bucket >> kLevelBits;
    const std::uint32_t index = bucket & (kBucketsPerLevel - 1);
    cur_ = (cur_ & (~std::uint64_t{0} << ((level + 1) * kLevelBits))) |
           (static_cast<std::uint64_t>(index) << (level * kLevelBits));
    cascade(bucket);
    bucket = slots_[head].bucket;
  }
  cur_ = (cur_ & ~std::uint64_t{kBucketsPerLevel - 1}) | bucket;
  popped_ = cur_;
  const std::uint32_t slot = head_[bucket];
  unlink_head(bucket);
  Popped out{slots_[slot].at, pack(slots_[slot].generation, slot),
             std::move(slots_[slot].fn)};
  retire(slot);
  peek_ = kNil;
  return out;
}

}  // namespace snipr::sim
