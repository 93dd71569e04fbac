#include "snipr/core/rush_hour_learner.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace snipr::core {
namespace {

/// EWMA weight when folding an epoch's samples into a slot's score.
constexpr double kEpochWeight = 0.3;
/// Additive smoothing of an effort-normalised sample:
/// rate = count/(effort + prior). Irrelevant in count mode.
constexpr double kEffortPriorS = 2.0;

}  // namespace

RushHourLearner::RushHourLearner(sim::Duration epoch, std::size_t slot_count,
                                 std::size_t rush_slots)
    : clock_{epoch, slot_count, "RushHourLearner"},
      rush_slots_{rush_slots},
      scores_(slot_count, 0.0),
      current_counts_(slot_count, 0.0),
      current_effort_s_(slot_count, 0.0),
      total_effort_s_(slot_count, 0.0),
      slot_samples_(slot_count, 0),
      slot_seeded_(slot_count, 0) {
  if (rush_slots == 0 || rush_slots > slot_count) {
    throw std::invalid_argument(
        "RushHourLearner: rush_slots must be in [1, slot_count]");
  }
}

void RushHourLearner::record_probe(sim::TimePoint t) {
  ++current_counts_[clock_.slot_of(t)];
}

void RushHourLearner::record_effort(sim::TimePoint t,
                                    sim::Duration radio_on) {
  effort_mode_ = true;
  current_effort_s_[clock_.slot_of(t)] += radio_on.to_seconds();
}

void RushHourLearner::record_repeated_effort(sim::TimePoint t0,
                                             sim::Duration cycle,
                                             sim::Duration radio_on,
                                             std::int64_t times) {
  if (times <= 0) return;
  effort_mode_ = true;
  const double sample = radio_on.to_seconds();
  // Slot by slot, in time order: the wakeups t0 + j·cycle up to the
  // current slot's last instant all add into that slot's sum.
  std::int64_t j = 1;
  while (j <= times) {
    const sim::TimePoint t = t0 + cycle * j;
    const sim::TimePoint slot_end = clock_.next_boundary(t).start;
    const std::int64_t last = std::min(
        times,
        (slot_end - sim::Duration::microseconds(1) - t0).count() /
            cycle.count());
    double& effort = current_effort_s_[clock_.slot_of(t)];
    for (; j <= last; ++j) effort += sample;
  }
}

void RushHourLearner::finish_epoch() {
  double total_effort = 0.0;
  double total_counts = 0.0;
  for (const double e : current_effort_s_) total_effort += e;
  for (const double c : current_counts_) total_counts += c;

  // An effort-mode learner whose radio never switched on this epoch
  // (budget gone at the boundary, tracking disabled and no rush slot
  // reached) learned nothing: hold every score. Falling back to count
  // mode here would seed unseeded slots at 0.0 and EWMA every seeded
  // slot toward a zero the node never observed — the cold-start bias
  // all over again, one layer up.
  const bool zero_information =
      effort_mode_ && total_effort <= 0.0 && total_counts <= 0.0;
  const bool effort_epoch = total_effort > 0.0;

  if (!zero_information) {
    for (std::size_t s = 0; s < scores_.size(); ++s) {
      double sample = 0.0;
      if (effort_epoch) {
        if (current_effort_s_[s] <= 0.0) continue;  // no information: hold
        sample =
            current_counts_[s] / (current_effort_s_[s] + kEffortPriorS);
      } else {
        sample = current_counts_[s];
      }
      // A slot's first real sample seeds its score; only later samples are
      // EWMA-blended. Seeding is per slot: a slot skipped above (no effort,
      // no information) must not be treated as initialised-at-0.0, or its
      // eventual first sample would be damped by kEpochWeight against a
      // prior that was never observed.
      if (slot_seeded_[s] == 0) {
        scores_[s] = sample;
        slot_seeded_[s] = 1;
      } else {
        scores_[s] += kEpochWeight * (sample - scores_[s]);
      }
      ++slot_samples_[s];
    }
  }
  for (std::size_t s = 0; s < scores_.size(); ++s) {
    total_effort_s_[s] += current_effort_s_[s];
  }
  std::fill(current_counts_.begin(), current_counts_.end(), 0.0);
  std::fill(current_effort_s_.begin(), current_effort_s_.end(), 0.0);
  ++epochs_;
}

std::vector<contact::SlotIndex> RushHourLearner::rank_slots(
    const std::vector<double>& scores, const std::vector<char>& seeded) {
  std::vector<contact::SlotIndex> order(scores.size());
  std::iota(order.begin(), order.end(), contact::SlotIndex{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](contact::SlotIndex a, contact::SlotIndex b) {
                     if (scores[a] != scores[b]) return scores[a] > scores[b];
                     // Evidence beats absence-of-evidence on a tied score;
                     // stable_sort keeps index order within equal pairs.
                     return seeded[a] > seeded[b];
                   });
  return order;
}

std::vector<contact::SlotIndex> RushHourLearner::slots_by_score() const {
  return rank_slots(scores_, slot_seeded_);
}

RushHourMask RushHourLearner::mask() const {
  return RushHourMask::top_k(epoch(), scores_.size(), slots_by_score(),
                             rush_slots_);
}

RushHourLearner::Snapshot RushHourLearner::snapshot() const {
  Snapshot state;
  state.scores = scores_;
  state.current_counts = current_counts_;
  state.current_effort_s = current_effort_s_;
  state.total_effort_s = total_effort_s_;
  state.slot_samples = slot_samples_;
  state.slot_seeded = slot_seeded_;
  state.effort_mode = effort_mode_;
  state.epochs = epochs_;
  return state;
}

void RushHourLearner::restore(const Snapshot& state) {
  const std::size_t n = scores_.size();
  if (state.scores.size() != n || state.current_counts.size() != n ||
      state.current_effort_s.size() != n || state.total_effort_s.size() != n ||
      state.slot_samples.size() != n || state.slot_seeded.size() != n) {
    throw std::invalid_argument(
        "RushHourLearner::restore: snapshot slot count mismatch");
  }
  scores_ = state.scores;
  current_counts_ = state.current_counts;
  current_effort_s_ = state.current_effort_s;
  total_effort_s_ = state.total_effort_s;
  slot_samples_ = state.slot_samples;
  slot_seeded_ = state.slot_seeded;
  effort_mode_ = state.effort_mode;
  epochs_ = state.epochs;
}

void RushHourLearner::reset() noexcept {
  const std::size_t n = scores_.size();
  scores_.assign(n, 0.0);
  current_counts_.assign(n, 0.0);
  current_effort_s_.assign(n, 0.0);
  total_effort_s_.assign(n, 0.0);
  slot_samples_.assign(n, 0);
  slot_seeded_.assign(n, 0);
  effort_mode_ = false;
  epochs_ = 0;
}

}  // namespace snipr::core
