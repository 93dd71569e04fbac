#include "snipr/core/adaptive_snip_rh.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "snipr/core/checkpoint_io.hpp"

namespace snipr::core {
namespace {

/// The exploit phase's re-check period while the tracker or the
/// exploration floor is overdue.
constexpr sim::Duration kPollPeriod = sim::Duration::seconds(1);
/// The mask refresh's hysteresis: an outsider slot enters only when its
/// score exceeds the weakest incumbent's by this fraction.
constexpr double kMaskHysteresis = 0.3;

}  // namespace

AdaptiveSnipRh::AdaptiveSnipRh(sim::Duration epoch, std::size_t slot_count,
                               AdaptiveSnipRhConfig config)
    : config_{config},
      learner_{epoch, slot_count, config.rush_slots},
      learn_probe_{config.learning_duty, config.rh.ton},
      track_probe_{std::max(config.tracking_duty, 1e-9), config.rh.ton},
      explore_probe_{std::max(config.exploration.explore_duty, 1e-9),
                     config.rh.ton},
      rh_{RushHourMask{epoch, slot_count}, config.rh},
      policy_{config.exploration},
      plan_{epoch, slot_count} {
  if (config.learning_epochs == 0) {
    throw std::invalid_argument(
        "AdaptiveSnipRh: need at least one learning epoch");
  }
}

std::string AdaptiveSnipRh::name() const {
  if (policy_.kind() == ExplorationPolicyKind::kNone) {
    return "SNIP-RH/adaptive";
  }
  return std::string{"SNIP-RH/adaptive+"} +
         std::string{exploration_policy_kind_id(policy_.kind())};
}

node::SchedulerDecision AdaptiveSnipRh::on_wakeup(
    const node::SensorContext& ctx) {
  if (learning_) {
    const node::SchedulerDecision d = learn_probe_.on_wakeup(ctx);
    if (d.probe) learner_.record_effort(ctx.now, config_.rh.ton);
    return d;
  }
  // Exploit phase: SNIP-RH drives; the background tracker gets a probing
  // wakeup whenever its (much longer) cycle has elapsed, keeping per-slot
  // statistics flowing outside the mask ("SNIP-AT with a very very small
  // duty-cycle", Sec. VII-B). Effort is logged per probing wakeup so the
  // learner can rank slots by contact *rate* rather than biased counts.
  if (config_.tracking_duty > 0.0 && ctx.now >= next_track_due_) {
    const node::SchedulerDecision track = track_probe_.on_wakeup(ctx);
    if (track.probe) {
      next_track_due_ = ctx.now + track.next_wakeup;
      learner_.record_effort(ctx.now, config_.rh.ton);
      const node::SchedulerDecision rh = rh_.on_wakeup(ctx);
      // Probe now (tracker), but wake again at the earlier of the two
      // policies' next checks — never sooner than the Ton just spent.
      return {.probe = true,
              .next_wakeup = std::max(
                  std::min(track.next_wakeup, rh.next_wakeup),
                  config_.rh.ton)};
    }
  }
  // Exploration duty floor: inside a planned exploration slot the node
  // probes at explore_duty regardless of the rush-hour mask, so slots the
  // mask censors still produce (effort, detection) samples the learner
  // can rank. Same alternation discipline as the tracker.
  const bool exploring = plan_.rush_slot_count() > 0;
  const bool in_explore_slot = exploring && plan_.is_rush(ctx.now);
  if (in_explore_slot && ctx.now >= next_explore_due_) {
    const node::SchedulerDecision ex = explore_probe_.on_wakeup(ctx);
    if (ex.probe) {
      next_explore_due_ = ctx.now + ex.next_wakeup;
      learner_.record_effort(ctx.now, config_.rh.ton);
      const node::SchedulerDecision rh = rh_.on_wakeup(ctx);
      return {.probe = true,
              .next_wakeup = std::max(
                  std::min(ex.next_wakeup, rh.next_wakeup), config_.rh.ton)};
    }
  }
  const node::SchedulerDecision rh = rh_.on_wakeup(ctx);
  if (rh.probe) learner_.record_effort(ctx.now, config_.rh.ton);
  sim::Duration next = rh.next_wakeup;
  if (config_.tracking_duty > 0.0) {
    const sim::Duration until_track =
        next_track_due_ > ctx.now ? next_track_due_ - ctx.now : kPollPeriod;
    next = std::min(next, until_track);
  }
  if (exploring) {
    sim::Duration until_explore = kPollPeriod;
    if (in_explore_slot) {
      if (next_explore_due_ > ctx.now) {
        until_explore = next_explore_due_ - ctx.now;
      }
    } else if (const auto start = plan_.next_rush_after(ctx.now)) {
      until_explore = std::max(*start - ctx.now, kPollPeriod);
    }
    next = std::min(next, until_explore);
  }
  return {.probe = rh.probe, .next_wakeup = next};
}

bool AdaptiveSnipRh::tracker_run(const node::SensorContext& ctx,
                                 sim::Duration cycle) const {
  // The tracker probed at ctx.now outside the mask, and is due again one
  // cycle later.
  return !learning_ && config_.tracking_duty > 0.0 &&
         cycle == tracker_cycle() && next_track_due_ == ctx.now + cycle &&
         !rh_.mask().is_rush(ctx.now);
}

std::int64_t AdaptiveSnipRh::repeat_bound(const node::SensorContext& ctx,
                                          node::SchedulerDecision verdict,
                                          sim::Duration charge) const {
  const sim::Duration cycle = verdict.next_wakeup;
  if (!verdict.probe) return poll_run_bound(ctx, cycle);
  // Learning-phase SNIP-AT ignores slots, and the tracker's path returns
  // before the plan is read, so their runs cross slot boundaries;
  // commit_repeats() adds each skipped probe's effort into its own
  // wakeup's slot.
  if (learning_) return learn_probe_.repeat_bound(ctx, verdict, charge);
  if (tracker_run(ctx, cycle)) {
    // At each wakeup of the run the tracker is due, so it probes while
    // the budget lasts, and the returned delay is its cycle while
    // SNIP-RH's sleep to the next rush slot is no shorter: stop by that
    // start − cycle. An all-zero mask sleeps one epoch at every wakeup,
    // as at ctx.now.
    std::int64_t bound = node::probes_within_budget(ctx, config_.rh.ton,
                                                    charge);
    if (const auto rush = rh_.mask().next_rush_after(ctx.now)) {
      bound =
          std::min(bound, node::wakeups_through(ctx.now, cycle, *rush - cycle));
    }
    return bound;
  }
  // SNIP-RH vouches only within ctx.now's slot, where the plan mask's
  // verdict for ctx.now holds too. on_wakeup() takes its plain SNIP-RH
  // path, and returns SNIP-RH's own cycle, only while the tracker is not
  // due and is at least one cycle away: stop by next_track_due_ − cycle.
  std::int64_t bound = rh_.repeat_bound(ctx, verdict, charge);
  if (config_.tracking_duty > 0.0) {
    bound = std::min(bound, node::wakeups_through(ctx.now, cycle,
                                                  next_track_due_ - cycle));
  }
  // The same for the exploration floor: inside a planned slot, its due
  // time; outside one, the plan's next rush start, which caps the wakeup
  // delay only when the cycle exceeds one second.
  if (plan_.rush_slot_count() > 0) {
    if (plan_.is_rush(ctx.now)) {
      bound = std::min(bound, node::wakeups_through(
                                  ctx.now, cycle, next_explore_due_ - cycle));
    } else if (cycle > kPollPeriod) {
      const auto start = plan_.next_rush_after(ctx.now);
      if (!start.has_value()) return 0;
      bound = std::min(bound,
                       node::wakeups_through(ctx.now, cycle, *start - cycle));
    }
  }
  return bound;
}

void AdaptiveSnipRh::commit_repeats(const node::SensorContext& ctx,
                                    node::SchedulerDecision verdict,
                                    std::int64_t k) {
  // A budget-spent poll changes nothing; SNIP-AT and SNIP-RH keep no
  // per-wakeup state. The tracker moves on k cycles, and every probing
  // run records its k effort samples.
  if (!verdict.probe) return;
  const sim::Duration cycle = verdict.next_wakeup;
  if (tracker_run(ctx, cycle)) next_track_due_ = ctx.now + cycle * (k + 1);
  learner_.record_repeated_effort(ctx.now, cycle, config_.rh.ton, k);
}

std::int64_t AdaptiveSnipRh::poll_run_bound(const node::SensorContext& ctx,
                                            sim::Duration cycle) const {
  // Exploit phase with the budget spent: an overdue tracker (and, inside
  // an exploration slot, an overdue floor) finds no Ton to spend, so
  // on_wakeup() changes nothing and cuts SNIP-RH's sleep until the epoch
  // end down to the poll period. Both stay overdue, and the run stays in
  // ctx.now's slot, so the floor's clamp does not change either.
  // The run also stops by the epoch end − cycle. SNIP-RH's 1 s sleep
  // floor keeps its sleep at the poll period in the epoch's last second
  // too, so that stop is conservative; the pinned work counts record it.
  if (learning_ || cycle != kPollPeriod || config_.tracking_duty <= 0.0 ||
      next_track_due_ > ctx.now ||
      ctx.budget_used + config_.rh.ton <= ctx.budget_limit) {
    return 0;
  }
  if (plan_.rush_slot_count() > 0 && plan_.is_rush(ctx.now) &&
      next_explore_due_ > ctx.now) {
    return 0;
  }
  const contact::SlotClock& clock = rh_.mask().slot_clock();
  const sim::TimePoint slot_end = clock.next_boundary(ctx.now).start;
  return std::min(
      node::wakeups_through(ctx.now, cycle,
                            slot_end - sim::Duration::microseconds(1)),
      node::wakeups_through(ctx.now, cycle,
                            clock.next_epoch_start(ctx.now) - cycle));
}

void AdaptiveSnipRh::on_probe_detected(sim::TimePoint when) {
  learner_.record_probe(when);
}

void AdaptiveSnipRh::on_contact_probed(
    const node::ProbedContactObservation& obs) {
  rh_.on_contact_probed(obs);
}

RushHourMask AdaptiveSnipRh::ranked_mask() const {
  if (!policy_.inflates_scores()) return learner_.mask();
  const std::vector<double> scores = policy_.effective_scores(learner_);
  return RushHourMask::top_k(
      learner_.epoch(), learner_.slot_count(),
      RushHourLearner::rank_slots(scores, learner_.slot_seeded()),
      config_.rush_slots);
}

void AdaptiveSnipRh::on_epoch_start(std::int64_t /*epoch_index*/) {
  learner_.finish_epoch();
  if (learning_) {
    if (learner_.epochs_observed() >= config_.learning_epochs) {
      rh_.set_mask(ranked_mask());
      learning_ = false;
      plan_ = policy_.plan_epoch(learner_, rh_.mask());
    }
    return;
  }
  // Exploit phase: refresh the mask with hysteresis — an outsider slot
  // must beat the weakest incumbent by kMaskHysteresis to enter.
  // Optimistic exploration inflates under-explored slots' scores here, so
  // the same hysteresis machinery grants them trial membership.
  const std::vector<double> optimistic =
      policy_.inflates_scores() ? policy_.effective_scores(learner_)
                                : std::vector<double>{};
  const std::vector<double>& scores =
      policy_.inflates_scores() ? optimistic : learner_.scores();
  RushHourMask mask = rh_.mask();
  const double margin = 1.0 + kMaskHysteresis;
  for (;;) {
    std::size_t weakest = mask.slot_count();
    std::size_t strongest = mask.slot_count();
    for (std::size_t s = 0; s < mask.slot_count(); ++s) {
      if (mask.is_rush_slot(s)) {
        if (weakest == mask.slot_count() || scores[s] < scores[weakest]) {
          weakest = s;
        }
      } else if (strongest == mask.slot_count() ||
                 scores[s] > scores[strongest]) {
        strongest = s;
      }
    }
    if (weakest == mask.slot_count() || strongest == mask.slot_count()) break;
    if (scores[strongest] <= scores[weakest] * margin + 1e-12) break;
    mask.set(weakest, false);
    mask.set(strongest, true);
  }
  rh_.set_mask(std::move(mask));
  plan_ = policy_.plan_epoch(learner_, rh_.mask());
}

std::string AdaptiveSnipRh::checkpoint() const {
  std::string out;
  out += "adaptive-snip-rh-v2 ";
  ckpt::append_u64(out, learning_ ? 1 : 0);

  const RushHourLearner::Snapshot snap = learner_.snapshot();
  ckpt::append_u64(out, static_cast<std::uint64_t>(snap.scores.size()));
  for (double v : snap.scores) ckpt::append_double(out, v);
  for (double v : snap.current_counts) ckpt::append_double(out, v);
  for (double v : snap.current_effort_s) ckpt::append_double(out, v);
  for (double v : snap.total_effort_s) ckpt::append_double(out, v);
  for (std::uint32_t v : snap.slot_samples) ckpt::append_u64(out, v);
  for (char v : snap.slot_seeded) ckpt::append_u64(out, v ? 1 : 0);
  ckpt::append_u64(out, snap.effort_mode ? 1 : 0);
  ckpt::append_u64(out, static_cast<std::uint64_t>(snap.epochs));

  // Inner SNIP-RH (mask + EWMAs) rides along as its own token stream.
  out += rh_.checkpoint();

  ckpt::append_u64(out, static_cast<std::uint64_t>(policy_.cursor()));
  append_mask_bits(out, plan_);

  ckpt::append_u64(out, static_cast<std::uint64_t>(next_track_due_.count()));
  ckpt::append_u64(out, static_cast<std::uint64_t>(next_explore_due_.count()));
  return out;
}

bool AdaptiveSnipRh::restore(std::string_view blob) {
  ckpt::TokenReader reader{blob};
  if (!reader.expect("adaptive-snip-rh-v2")) return false;
  std::uint64_t learning = 0;
  if (!reader.read_u64(learning)) return false;

  std::uint64_t slots = 0;
  if (!reader.read_u64(slots) || slots != learner_.slot_count()) return false;
  RushHourLearner::Snapshot snap;
  const auto n = static_cast<std::size_t>(slots);
  snap.scores.resize(n);
  snap.current_counts.resize(n);
  snap.current_effort_s.resize(n);
  snap.total_effort_s.resize(n);
  snap.slot_samples.resize(n);
  snap.slot_seeded.resize(n);
  for (double& v : snap.scores) {
    if (!reader.read_double(v)) return false;
  }
  for (double& v : snap.current_counts) {
    if (!reader.read_double(v)) return false;
  }
  for (double& v : snap.current_effort_s) {
    if (!reader.read_double(v)) return false;
  }
  for (double& v : snap.total_effort_s) {
    if (!reader.read_double(v)) return false;
  }
  for (std::uint32_t& v : snap.slot_samples) {
    std::uint64_t raw = 0;
    if (!reader.read_u64(raw)) return false;
    v = static_cast<std::uint32_t>(raw);
  }
  for (char& v : snap.slot_seeded) {
    std::uint64_t raw = 0;
    if (!reader.read_u64(raw)) return false;
    v = raw != 0 ? 1 : 0;
  }
  std::uint64_t effort_mode = 0;
  std::uint64_t epochs = 0;
  if (!reader.read_u64(effort_mode) || !reader.read_u64(epochs)) return false;
  snap.effort_mode = effort_mode != 0;
  snap.epochs = static_cast<std::size_t>(epochs);

  SnipRh::Checkpoint rh_state;
  if (!rh_.read_checkpoint(reader, rh_state)) return false;

  std::uint64_t cursor = 0;
  std::vector<bool> plan_bits;
  if (!reader.read_u64(cursor) || !read_mask_bits(reader, plan_bits) ||
      plan_bits.size() != learner_.slot_count()) {
    return false;
  }
  std::uint64_t track_due_us = 0;
  std::uint64_t explore_due_us = 0;
  if (!reader.read_u64(track_due_us) || !reader.read_u64(explore_due_us) ||
      !reader.exhausted()) {
    return false;
  }

  // All tokens parsed and validated; commit.
  rh_.apply(std::move(rh_state));
  learner_.restore(snap);
  learning_ = learning != 0;
  policy_.set_cursor(static_cast<std::size_t>(cursor));
  plan_ = RushHourMask{learner_.epoch(), plan_bits};
  next_track_due_ = sim::TimePoint::at(
      sim::Duration::microseconds(static_cast<std::int64_t>(track_due_us)));
  next_explore_due_ = sim::TimePoint::at(
      sim::Duration::microseconds(static_cast<std::int64_t>(explore_due_us)));
  return true;
}

void AdaptiveSnipRh::reset() {
  // Full amnesia: unlike standalone SNIP-RH (whose mask is provisioned
  // config), the adaptive node's mask was learned state — a reboot goes
  // back to the learning phase with an empty mask, as on first boot.
  learner_.reset();
  rh_.reset();
  rh_.set_mask(RushHourMask{learner_.epoch(), learner_.slot_count()});
  policy_.set_cursor(0);
  plan_ = RushHourMask{learner_.epoch(), learner_.slot_count()};
  learning_ = true;
  next_track_due_ = sim::TimePoint::zero();
  next_explore_due_ = sim::TimePoint::zero();
}

}  // namespace snipr::core
