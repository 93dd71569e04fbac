#include "snipr/node/sensor_node.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "snipr/fault/fault_plan.hpp"

namespace snipr::node {

namespace {
using energy::RadioState;
}  // namespace

SensorNode::SensorNode(radio::Channel& channel, MobileNode& /*sink*/,
                       Scheduler& scheduler, SensorNodeConfig config)
    : channel_{channel},
      scheduler_{scheduler},
      config_{config},
      buffer_{config.sensing_rate_bps} {
  if (!(config.ton > sim::Duration::zero())) {
    throw std::invalid_argument("SensorNode: ton must be positive");
  }
  if (!(config.epoch > sim::Duration::zero())) {
    throw std::invalid_argument("SensorNode: epoch must be positive");
  }
}

SensorNode::SensorNode(sim::Simulator& simulator, radio::Channel& channel,
                       MobileNode& sink, Scheduler& scheduler,
                       SensorNodeConfig config, NodeBlock& block,
                       std::size_t lane)
    : SensorNode{channel, sink, scheduler, std::move(config)} {
  if (lane >= block.lanes.size()) {
    throw std::out_of_range("SensorNode: lane outside the node block");
  }
  simulator_ = &simulator;
  counters_ = &block.lanes[lane];
}

void SensorNode::start() {
  if (started_) throw std::logic_error("SensorNode::start called twice");
  started_ = true;
  if (config_.record_epoch_history) {
    history_.reserve(config_.expected_epochs);
  }
  if (config_.record_probed_contacts) {
    // Each schedule contact is probed at most once, so schedule size is a
    // hard bound — but duty-cycled nodes typically probe a small fraction
    // of it, so cap the up-front commitment rather than reserve a slot
    // for every contact the node will sleep through; a heavier-probing
    // run still grows geometrically past the cap.
    constexpr std::size_t kProbedReserveCap = 1024;
    probed_.reserve(std::min(channel_.schedule().size(), kProbedReserveCap));
  }
  if (simulator_ != nullptr) {
    now_ = simulator_->now();
    simulator_->nodes_.push_back(this);
  }
  next_ = arm(now_);
  epoch_ = arm(now_ + config_.epoch);
}

std::size_t SensorNode::run_until(sim::TimePoint until) {
  if (until < now_) {
    throw std::logic_error("SensorNode::run_until: target is in the past");
  }
  bound_ = until;
  events_ = 0;
  while (started_) {
    const bool epoch_first =
        epoch_.at != next_.at ? epoch_.at < next_.at : epoch_.seq < next_.seq;
    const Timer due = epoch_first ? epoch_ : next_;
    if (due.at > until) break;
    now_ = due.at;
    ++events_;
    if (epoch_first) {
      epoch_boundary();
    } else if (next_is_transfer_) {
      end_transfer();
    } else {
      cpu_wakeup();
    }
  }
  now_ = until;  // idle advance
  return events_;
}

SensorContext SensorNode::make_context() const {
  SensorContext ctx;
  ctx.now = now_;
  ctx.buffer_bytes = buffer_.available(ctx.now);
  ctx.budget_used = budget_used();
  ctx.budget_limit = config_.budget_limit;
  ctx.epoch_index = epoch_index_;
  return ctx;
}

EpochStats SensorNode::epoch_stats(double probing_j,
                                   double transfer_j) const noexcept {
  EpochStats e;
  e.epoch_index = epoch_index_;
  e.phi = sim::Duration::microseconds(counters_->phi_us);
  e.zeta = sim::Duration::microseconds(counters_->zeta_us);
  e.bytes_uploaded = counters_->bytes_uploaded;
  e.contacts_probed = counters_->contacts_probed;
  e.wakeups = counters_->wakeups;
  e.probing_energy_j = probing_j - probing_j_mark_;
  e.transfer_energy_j = transfer_j - transfer_j_mark_;
  return e;
}

void SensorNode::schedule_next(sim::Duration delay) {
  next_ = arm(now_ + delay);
  next_is_transfer_ = false;
}

void SensorNode::cpu_wakeup() {
  const SensorContext ctx = make_context();
  const SchedulerDecision decision = scheduler_.on_wakeup(ctx);
  if (!(decision.next_wakeup > sim::Duration::zero())) {
    throw std::logic_error("Scheduler returned a non-positive next_wakeup");
  }
  counters_->last_wakeup_us = decision.next_wakeup.count();
  if (decision.probe) {
    ++counters_->wakeups;
    snip_wakeup();  // schedules the next CPU wakeup itself
  } else {
    // A non-probing wakeup touches neither the radio nor a fault stream:
    // only pending events and the run bound limit a run of them.
    const std::int64_t k = within_limits(
        scheduler_.repeat_bound(ctx, decision, sim::Duration::zero()),
        decision.next_wakeup);
    if (k > 0) {
      scheduler_.commit_repeats(ctx, decision, k);
      fast_forward(ctx.now + decision.next_wakeup * k, k);
    }
    schedule_next(decision.next_wakeup);
  }
}

void SensorNode::snip_wakeup() {
  const sim::TimePoint t0 = now_;
  const radio::LinkParams& link = channel_.link();
  const sim::Duration last_next_wakeup =
      sim::Duration::microseconds(counters_->last_wakeup_us);

  // Beacon transmission. The exchange resolves synchronously: the only
  // parties are this node and (at most) the one mobile node in range, so
  // outcomes can be computed now and only the *end* of the activity needs
  // a future event. Meters use duration accumulation rather than open
  // intervals so an epoch boundary inside the window stays consistent.
  const sim::TimePoint beacon_end = t0 + link.beacon_airtime;
  const sim::TimePoint listen_end = t0 + config_.ton;

  bool probed = false;
  sim::TimePoint reply_end = beacon_end + link.reply_airtime;
  if (reply_end <= listen_end &&
      channel_.try_deliver(t0, link.beacon_airtime) &&
      channel_.try_deliver(beacon_end, link.reply_airtime)) {
    probed = true;
  }

  if (probed && faults_ != nullptr) {
    // Injected radio false negative: the handshake happened in the world,
    // but this node's receiver dropped it. The injector sees only how far
    // into the contact the probe landed (an SNR proxy the radio itself
    // embodies), never the schedule.
    const auto active = channel_.active_contact(t0);
    double contact_fraction = 0.0;
    if (active.has_value() && active->length > sim::Duration::zero()) {
      contact_fraction =
          (t0 - active->arrival).to_seconds() / active->length.to_seconds();
    }
    if (faults_->miss_probe(contact_fraction)) probed = false;
  }

  probing_meter_.accumulate(RadioState::kTx, link.beacon_airtime);
  if (!probed) {
    if (faults_ != nullptr && faults_->spurious_detection()) {
      // Radio false positive: a ghost reply. The scheduler (and through
      // it the learner) records a detection that never was; no transfer
      // follows, and the wakeup is charged like any other miss.
      scheduler_.on_probe_detected(reply_end);
    }
    // Listen out the rest of Ton, then sleep. Full Ton charged to Φ.
    probing_meter_.accumulate(RadioState::kListen,
                              listen_end - beacon_end);
    counters_->budget_used_us += config_.ton.count();
    counters_->phi_us += config_.ton.count();
    // The radio is busy until listen_end: the next wakeup can never come
    // sooner than one Ton, whatever the scheduler asked for.
    if (last_next_wakeup >= config_.ton) {
      fast_forward_misses(t0, last_next_wakeup);
    }
    schedule_next(std::max(last_next_wakeup, config_.ton));
    return;
  }

  // Reply received: contact probed at reply_end. Probing cost is only the
  // exchange up to awareness; the transfer session is metered separately.
  probing_meter_.accumulate(RadioState::kRx, link.reply_airtime);
  const sim::Duration probe_cost = reply_end - t0;
  counters_->budget_used_us += probe_cost.count();
  counters_->phi_us += probe_cost.count();

  const auto active = channel_.active_contact(t0);
  if (!active.has_value()) {
    throw std::logic_error("probed without an active contact");
  }
  const bool new_session =
      counters_->last_probed_arrival_us != active->arrival.count();
  counters_->last_probed_arrival_us = active->arrival.count();
  // Detection is observable now; learners bucket it into the epoch whose
  // effort paid for it, however long the transfer runs.
  if (new_session) scheduler_.on_probe_detected(reply_end);
  begin_transfer(*active, reply_end, last_next_wakeup, new_session);
}

std::int64_t SensorNode::within_limits(std::int64_t bound,
                                       sim::Duration delay) const {
  // Wakeups now + j·delay, j = 1..bound, strictly before the epoch timer
  // (which, armed earlier, wins a tie) and within the run bound.
  if (bound <= 0) return 0;
  const sim::TimePoint limit =
      std::min(bound_, epoch_.at - sim::Duration::microseconds(1));
  return std::min(bound, wakeups_through(now_, delay, limit));
}

void SensorNode::fast_forward_misses(sim::TimePoint t0, sim::Duration cycle) {
  // A spurious-detection fault draws on every miss: per-wakeup path.
  if (faults_ != nullptr && faults_->spec().radio.spurious_detect_prob > 0.0) {
    return;
  }
  // The scheduler answers first: a run it does not vouch for costs no
  // walk of the schedule.
  const SensorContext ctx = make_context();
  const SchedulerDecision verdict{.probe = true, .next_wakeup = cycle};
  const std::int64_t bound = scheduler_.repeat_bound(ctx, verdict, config_.ton);
  if (bound <= 0 || channel_.active_contact(t0).has_value()) return;
  std::int64_t k = within_limits(bound, cycle);
  if (k <= 0) return;
  // A probe at a grid point t0 + j·cycle that no contact covers finds no
  // receiver: try_deliver() fails without an RNG draw, and miss_probe(),
  // which only runs on a delivered reply, does not run either. So the
  // run may step over every contact that falls wholly between two grid
  // points, and must end before the first contact a grid point lands in.
  // "Lands in" takes the closed interval [arrival, departure], where even
  // a zero-airtime frame finds nobody outside it. The walk reads the
  // schedule forward from the channel's cursor and stops at the run's
  // last grid point, so it never looks past where the run can reach.
  const std::vector<contact::Contact>& contacts =
      channel_.schedule().contacts();
  const sim::TimePoint last = t0 + cycle * k;
  for (std::size_t i = channel_.next_arrival_index(t0);
       i < contacts.size() && contacts[i].arrival <= last; ++i) {
    const contact::Contact& c = contacts[i];
    // The first grid point of the run at or after the arrival.
    const std::int64_t j = std::max<std::int64_t>(
        1, ((c.arrival - t0).count() + cycle.count() - 1) / cycle.count());
    if (t0 + cycle * j <= c.departure()) {
      k = j - 1;
      break;
    }
  }
  if (k <= 0) return;
  scheduler_.commit_repeats(ctx, verdict, k);
  // The k misses, charged as the per-wakeup path charges each one. Every
  // charge is an integer duration, so k of them sum exactly.
  const radio::LinkParams& link = channel_.link();
  counters_->wakeups += static_cast<std::uint64_t>(k);
  probing_meter_.accumulate(RadioState::kTx, link.beacon_airtime * k);
  probing_meter_.accumulate(RadioState::kListen,
                            (config_.ton - link.beacon_airtime) * k);
  counters_->budget_used_us += config_.ton.count() * k;
  counters_->phi_us += config_.ton.count() * k;
  fast_forward(t0 + cycle * k, k);
}

void SensorNode::begin_transfer(const contact::Contact& active,
                                sim::TimePoint probe_time,
                                sim::Duration cycle_hint, bool new_session) {
  const double rate = channel_.link().data_rate_bps;
  const double backlog = buffer_.available(probe_time);

  // Fluid drain: the buffer refills at the sensing rate while uploading at
  // the link rate. With rate <= sensing the transfer only ends at departure.
  sim::TimePoint transfer_end = active.departure();
  bool saw_departure = true;
  if (rate > buffer_.rate_bps()) {
    const double drain_s = backlog / (rate - buffer_.rate_bps());
    const sim::TimePoint drained = probe_time + sim::Duration::seconds(drain_s);
    if (drained < transfer_end) {
      transfer_end = drained;
      saw_departure = false;
    }
  }

  if (faults_ != nullptr) {
    // Injected mid-transfer abort: the session dies at a uniform fraction
    // of its planned duration and delivers only the truncated bytes. The
    // node cannot tell an abort from a departure it slept through, so the
    // observation is reported exactly like a truncated one
    // (saw_departure = false) — the learner's censoring rules apply.
    const double abort_fraction = faults_->transfer_abort_fraction();
    if (abort_fraction < 1.0) {
      const double planned_s = (transfer_end - probe_time).to_seconds();
      transfer_end =
          probe_time + sim::Duration::seconds(planned_s * abort_fraction);
      saw_departure = false;
    }
  }

  if (new_session) {
    // Ground-truth probed capacity is Tprobed = departure − awareness,
    // independent of how much of it the transfer used (Table I).
    counters_->zeta_us += (active.departure() - probe_time).count();
    ++counters_->contacts_probed;
  }

  // The transfer's end takes the wakeup's place on the next timer.
  next_ = arm(transfer_end);
  next_is_transfer_ = true;
  transfer_contact_ = active;
  transfer_probe_time_ = probe_time;
  transfer_cycle_ = cycle_hint;
  transfer_saw_departure_ = saw_departure;
  transfer_new_session_ = new_session;
}

void SensorNode::end_transfer() {
  // Metered on completion; a transfer straddling an epoch boundary is
  // attributed to the epoch in which it ends, like its bytes.
  const sim::TimePoint probe_time = transfer_probe_time_;
  transfer_meter_.accumulate(RadioState::kTx, now_ - probe_time);
  const double duration_s = (now_ - probe_time).to_seconds();
  const double bytes =
      buffer_.take(now_, channel_.link().data_rate_bps * duration_s);
  counters_->bytes_uploaded += bytes;
  if (transfer_new_session_) {
    ++counters_->probed_sessions;
    if (config_.record_probed_contacts) {
      probed_.push_back(
          ProbedContactRecord{transfer_contact_, probe_time, bytes});
    }
    ProbedContactObservation obs;
    obs.probe_time = probe_time;
    obs.observed_probed_len = now_ - probe_time;
    obs.bytes_uploaded = bytes;
    obs.cycle_at_probe = transfer_cycle_;
    obs.saw_departure = transfer_saw_departure_;
    scheduler_.on_contact_probed(obs);
  }
  schedule_next(sim::Duration::microseconds(counters_->last_wakeup_us));
}

void SensorNode::epoch_boundary() {
  // Each meter sums its radio states on every read: read it once, for
  // both the epoch's history row and the next epoch's mark.
  const double probing_j = probing_meter_.energy_j();
  const double transfer_j = transfer_meter_.energy_j();
  if (config_.record_epoch_history) {
    history_.push_back(epoch_stats(probing_j, transfer_j));
  }
  probing_j_mark_ = probing_j;
  transfer_j_mark_ = transfer_j;

  // The epoch is recorded: zero its counters.
  NodeCounters& c = *counters_;
  c.phi_us = 0;
  c.zeta_us = 0;
  c.bytes_uploaded = 0.0;
  c.contacts_probed = 0;
  c.wakeups = 0;
  c.budget_used_us = 0;
  ++epoch_index_;
  if (faults_ != nullptr) {
    crash_and_recovery_step();
  } else {
    scheduler_.on_epoch_start(epoch_index_);
  }
  epoch_ = arm(now_ + config_.epoch);
}

void SensorNode::crash_and_recovery_step() {
  // Crash before the epoch-start hook: a node that died overnight reboots
  // into the new epoch, and whatever state survived is what the scheduler
  // folds its first post-crash epoch with.
  if (faults_->crash_now()) {
    const bool restored = faults_->spec().node.restore_from_checkpoint &&
                          !checkpoint_.empty() &&
                          scheduler_.restore(checkpoint_);
    if (!restored) {
      // Amnesia reboot: back to as-constructed state. If the node had a
      // learned mask, start measuring how long it takes to re-cover it.
      scheduler_.reset();
      bool had_mask = false;
      for (const bool bit : last_good_mask_bits_) had_mask = had_mask || bit;
      reconverging_ = had_mask;
    }
  }
  scheduler_.on_epoch_start(epoch_index_);

  if (reconverging_) {
    const std::vector<bool> bits = scheduler_.rush_mask_bits();
    std::size_t target_rush = 0;
    std::size_t matched = 0;
    for (std::size_t s = 0; s < last_good_mask_bits_.size(); ++s) {
      if (!last_good_mask_bits_[s]) continue;
      ++target_rush;
      if (s < bits.size() && bits[s]) ++matched;
    }
    const double overlap =
        target_rush == 0
            ? 1.0
            : static_cast<double>(matched) / static_cast<double>(target_rush);
    if (overlap >= faults_->spec().node.reconvergence_overlap) {
      ++faults_->counters().reconvergences;
      reconverging_ = false;
    } else {
      ++faults_->counters().reconvergence_epochs;
    }
  }
  if (!reconverging_) {
    // Healthy epoch: today's mask becomes the next crash's target.
    last_good_mask_bits_ = scheduler_.rush_mask_bits();
  }
  if (faults_->spec().node.restore_from_checkpoint &&
      faults_->spec().node.enabled()) {
    checkpoint_ = scheduler_.checkpoint();
  }
}

}  // namespace snipr::node
