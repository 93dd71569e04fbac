#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/node/scheduler.hpp"

/// \file pass_through_scheduler.hpp
/// A Scheduler decorator that forwards every virtual to the scheduler it
/// wraps except the fast-forward pair `repeat_bound`/`commit_repeats`,
/// which it leaves at the base defaults (a bound of 0). A node running a
/// wrapped scheduler therefore takes the per-wakeup path on every wakeup,
/// the reference the fast-forward of runs of missed probes and idle polls
/// must reproduce byte for byte.
///
/// Constructed with `Hook::kForward` it forwards the pair too, and is a
/// transparent counter: the differential tests use that form to show the
/// fast path really ran. Every commit must follow the bound it commits
/// against: 0 < k <= the bound the decorator returned at the same
/// `ctx.now` and verdict, with no other commit in between; anything else
/// throws std::logic_error. It counts committed probes and idle polls
/// apart, and, of the probes, those an adaptive SNIP-RH scheduler skipped
/// outside its mask in the exploit phase: its lone tracker probes, since
/// SNIP-RH runs stay inside the mask. It also counts probed contacts
/// (`on_contact_probed` calls, one per collection session a routed fleet
/// replays). Counts go to the decorator and,
/// when a tally is given, into it on destruction (fleet engines destroy
/// each node's scheduler when the node finishes, possibly on a worker
/// thread).
///
/// Header-only: shared by the property, unit and integration tests and
/// by bench/bench_perf_kernels.cpp.

namespace snipr::testing {

struct PassThroughTally {
  std::atomic<std::uint64_t> wakeup_calls{0};
  std::atomic<std::uint64_t> skipped_probes{0};
  std::atomic<std::uint64_t> skipped_tracker_probes{0};
  std::atomic<std::uint64_t> skipped_polls{0};
  std::atomic<std::uint64_t> contacts_probed{0};

  /// Wakeups the forwarded hook skipped, of either kind.
  [[nodiscard]] std::uint64_t skipped() const noexcept {
    return skipped_probes.load() + skipped_polls.load();
  }
};

class PassThroughScheduler final : public node::Scheduler {
 public:
  enum class Hook { kWithhold, kForward };

  explicit PassThroughScheduler(std::unique_ptr<node::Scheduler> inner,
                                Hook hook = Hook::kWithhold,
                                PassThroughTally* tally = nullptr)
      : inner_{std::move(inner)},
        adaptive_{dynamic_cast<const core::AdaptiveSnipRh*>(inner_.get())},
        hook_{hook},
        tally_{tally} {
    if (inner_ == nullptr) {
      throw std::invalid_argument("PassThroughScheduler: null scheduler");
    }
  }
  ~PassThroughScheduler() override {
    if (tally_ != nullptr) {
      tally_->wakeup_calls.fetch_add(wakeup_calls_, std::memory_order_relaxed);
      tally_->skipped_probes.fetch_add(skipped_probes_,
                                       std::memory_order_relaxed);
      tally_->skipped_tracker_probes.fetch_add(skipped_tracker_probes_,
                                               std::memory_order_relaxed);
      tally_->skipped_polls.fetch_add(skipped_polls_,
                                      std::memory_order_relaxed);
      tally_->contacts_probed.fetch_add(contacts_probed_,
                                        std::memory_order_relaxed);
    }
  }
  PassThroughScheduler(const PassThroughScheduler&) = delete;
  PassThroughScheduler& operator=(const PassThroughScheduler&) = delete;
  PassThroughScheduler(PassThroughScheduler&&) = delete;
  PassThroughScheduler& operator=(PassThroughScheduler&&) = delete;

  [[nodiscard]] node::SchedulerDecision on_wakeup(
      const node::SensorContext& ctx) override {
    ++wakeup_calls_;
    return inner_->on_wakeup(ctx);
  }
  [[nodiscard]] std::int64_t repeat_bound(const node::SensorContext& ctx,
                                          node::SchedulerDecision verdict,
                                          sim::Duration charge) const override {
    if (hook_ == Hook::kWithhold) return 0;
    const std::int64_t bound = inner_->repeat_bound(ctx, verdict, charge);
    offered_ = {.now = ctx.now, .verdict = verdict, .bound = bound};
    return bound;
  }
  void commit_repeats(const node::SensorContext& ctx,
                      node::SchedulerDecision verdict,
                      std::int64_t k) override {
    if (k <= 0 || k > offered_.bound || ctx.now != offered_.now ||
        verdict.probe != offered_.verdict.probe ||
        verdict.next_wakeup != offered_.verdict.next_wakeup) {
      throw std::logic_error(
          "PassThroughScheduler: commit outside the bound just returned");
    }
    offered_.bound = 0;
    const auto n = static_cast<std::uint64_t>(k);
    if (!verdict.probe) {
      skipped_polls_ += n;
    } else {
      skipped_probes_ += n;
      if (adaptive_ != nullptr && !adaptive_->learning() &&
          !adaptive_->current_mask().is_rush(ctx.now)) {
        skipped_tracker_probes_ += n;
      }
    }
    inner_->commit_repeats(ctx, verdict, k);
  }
  void on_probe_detected(sim::TimePoint when) override {
    inner_->on_probe_detected(when);
  }
  void on_contact_probed(const node::ProbedContactObservation& obs) override {
    ++contacts_probed_;
    inner_->on_contact_probed(obs);
  }
  void on_epoch_start(std::int64_t epoch_index) override {
    inner_->on_epoch_start(epoch_index);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string checkpoint() const override {
    return inner_->checkpoint();
  }
  bool restore(std::string_view blob) override {
    return inner_->restore(blob);
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::vector<bool> rush_mask_bits() const override {
    return inner_->rush_mask_bits();
  }

  [[nodiscard]] std::uint64_t wakeup_calls() const noexcept {
    return wakeup_calls_;
  }
  [[nodiscard]] std::uint64_t skipped_probes() const noexcept {
    return skipped_probes_;
  }
  [[nodiscard]] std::uint64_t skipped_tracker_probes() const noexcept {
    return skipped_tracker_probes_;
  }
  [[nodiscard]] std::uint64_t skipped_polls() const noexcept {
    return skipped_polls_;
  }

 private:
  /// The last bound returned, which the next commit must stay within.
  struct Offer {
    sim::TimePoint now;
    node::SchedulerDecision verdict;
    std::int64_t bound{0};
  };

  std::unique_ptr<node::Scheduler> inner_;
  const core::AdaptiveSnipRh* adaptive_;
  mutable Offer offered_;
  Hook hook_;
  PassThroughTally* tally_;
  std::uint64_t wakeup_calls_{0};
  std::uint64_t skipped_probes_{0};
  std::uint64_t skipped_tracker_probes_{0};
  std::uint64_t skipped_polls_{0};
  std::uint64_t contacts_probed_{0};
};

}  // namespace snipr::testing
