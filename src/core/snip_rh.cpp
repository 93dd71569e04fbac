#include "snipr/core/snip_rh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "snipr/core/checkpoint_io.hpp"

namespace snipr::core {
namespace {

/// EWMA weight for the mean upload per probed contact (Sec. VI-B).
constexpr double kUploadEwmaWeight = 0.1;
/// Condition 2 floor: probe only when at least this many bytes wait,
/// even before any upload has been observed.
constexpr double kMinDataBytes = 1.0;
/// Floor for CPU sleep intervals between condition checks.
constexpr sim::Duration kMinSleep = sim::Duration::seconds(1);

void append_ewma(std::string& out, const stats::Ewma& ewma) {
  ckpt::append_double(out, ewma.mean_raw());
  ckpt::append_u64(out, ewma.has_value() ? 1 : 0);
  ckpt::append_u64(out, ewma.count());
}

bool read_ewma(ckpt::TokenReader& reader, stats::Ewma& ewma) {
  double mean = 0.0;
  std::uint64_t initialised = 0;
  std::uint64_t count = 0;
  if (!reader.read_double(mean) || !reader.read_u64(initialised) ||
      !reader.read_u64(count)) {
    return false;
  }
  ewma.restore(mean, initialised != 0, static_cast<std::size_t>(count));
  return true;
}

}  // namespace

SnipRh::SnipRh(RushHourMask mask, SnipRhConfig config)
    : mask_{std::move(mask)},
      config_{config},
      tcontact_s_{config.length_ewma_weight, config.initial_tcontact_s},
      upload_bytes_{kUploadEwmaWeight} {
  if (!(config.ton > sim::Duration::zero())) {
    throw std::invalid_argument("SnipRh: ton must be positive");
  }
  if (!(config.initial_tcontact_s > 0.0)) {
    throw std::invalid_argument("SnipRh: initial tcontact must be positive");
  }
  refresh_cycle();
}

void SnipRh::refresh_cycle() noexcept {
  duty_ = duty();
  probe_cycle_ =
      duty_ <= 0.0
          ? sim::Duration::zero()
          : std::max(sim::Duration::seconds(config_.ton.to_seconds() / duty_),
                     config_.ton);
}

double SnipRh::tcontact_estimate_s() const noexcept {
  return tcontact_s_.value_or(config_.initial_tcontact_s);
}

double SnipRh::duty() const noexcept {
  // d_rh = Ton / T̄contact: the knee of the SNIP capacity curve.
  return std::clamp(config_.ton.to_seconds() / tcontact_estimate_s(), 0.0,
                    1.0);
}

double SnipRh::upload_threshold_bytes() const noexcept {
  return std::max(kMinDataBytes, upload_bytes_.value_or(0.0));
}

node::SchedulerDecision SnipRh::on_wakeup(const node::SensorContext& ctx) {
  // Condition 3: the epoch's probing budget must afford one more wakeup.
  if (ctx.budget_used + config_.ton > ctx.budget_limit) {
    // Budget resets at the next epoch boundary.
    const sim::TimePoint wake = mask_.slot_clock().next_epoch_start(ctx.now);
    return {.probe = false,
            .next_wakeup = std::max(wake - ctx.now, kMinSleep)};
  }

  // Condition 1: only probe inside Rush Hours.
  if (!mask_.is_rush(ctx.now)) {
    const auto next = mask_.next_rush_after(ctx.now);
    if (!next.has_value()) {
      // Degenerate all-zero mask: re-check once per epoch (the mask may be
      // replaced by an adaptive learner in the meantime).
      return {.probe = false, .next_wakeup = mask_.epoch()};
    }
    return {.probe = false,
            .next_wakeup = std::max(*next - ctx.now, kMinSleep)};
  }

  // Condition 2: enough data must wait so probed capacity is not wasted.
  const double threshold = upload_threshold_bytes();
  if (ctx.buffer_bytes < threshold) {
    // Sleep until the constant-rate sensing refills the gap (bounded below
    // by kMinSleep; re-evaluated on the next wakeup anyway).
    sim::Duration wait = kMinSleep;
    // The node's sensing rate is not in the context; a half-threshold
    // heuristic keeps checks cheap without assuming the rate: re-check
    // after one rush-slot fraction.
    wait = std::max(wait, mask_.slot_length() / 16);
    return {.probe = false, .next_wakeup = wait};
  }

  if (duty_ <= 0.0) {
    return {.probe = false, .next_wakeup = kMinSleep};
  }
  return {.probe = true, .next_wakeup = probe_cycle_};
}

std::int64_t SnipRh::repeat_bound(const node::SensorContext& ctx,
                                  node::SchedulerDecision verdict,
                                  sim::Duration charge) const {
  // on_wakeup()'s rush and upload-threshold checks, passed at ctx.now,
  // hold for the rest of the slot. A zero duty leaves a zero cycle, which
  // no positive `cycle` equals; the budget bounds the run below.
  const sim::Duration cycle = verdict.next_wakeup;
  if (!verdict.probe || !mask_.is_rush(ctx.now) ||
      ctx.buffer_bytes < upload_threshold_bytes() || probe_cycle_ != cycle) {
    return 0;
  }
  const sim::TimePoint slot_end =
      mask_.slot_clock().next_boundary(ctx.now).start;
  return std::min(node::probes_within_budget(ctx, config_.ton, charge),
                  node::wakeups_through(
                      ctx.now, cycle,
                      slot_end - sim::Duration::microseconds(1)));
}

void SnipRh::on_contact_probed(const node::ProbedContactObservation& obs) {
  if (!obs.saw_departure) {
    // A drained buffer truncated the observation; it under-estimates the
    // contact length, so skip it (upload amount is still informative).
    upload_bytes_.add(obs.bytes_uploaded);
    return;
  }
  double sample_s = obs.observed_probed_len.to_seconds();
  if (config_.head_correction) {
    // The pre-awareness gap is uniform over the cycle: add its mean.
    sample_s += obs.cycle_at_probe.to_seconds() / 2.0;
  }
  if (sample_s > 0.0) {
    tcontact_s_.add(sample_s);
    refresh_cycle();
  }
  upload_bytes_.add(obs.bytes_uploaded);
}

void append_mask_bits(std::string& out, const RushHourMask& mask) {
  ckpt::append_u64(out, static_cast<std::uint64_t>(mask.slot_count()));
  for (std::size_t s = 0; s < mask.slot_count(); ++s) {
    ckpt::append_u64(out, mask.is_rush_slot(s) ? 1 : 0);
  }
}

bool read_mask_bits(ckpt::TokenReader& reader, std::vector<bool>& bits) {
  std::uint64_t slots = 0;
  if (!reader.read_u64(slots)) return false;
  // Grown one read token at a time, so a corrupt slot count cannot make
  // it allocate more than the blob holds.
  bits.clear();
  for (std::uint64_t s = 0; s < slots; ++s) {
    std::uint64_t bit = 0;
    if (!reader.read_u64(bit)) return false;
    bits.push_back(bit != 0);
  }
  return true;
}

std::string SnipRh::checkpoint() const {
  std::string out;
  out += "snip-rh-v1 ";
  append_mask_bits(out, mask_);
  append_ewma(out, tcontact_s_);
  append_ewma(out, upload_bytes_);
  return out;
}

bool SnipRh::restore(std::string_view blob) {
  ckpt::TokenReader reader{blob};
  Checkpoint state;
  if (!read_checkpoint(reader, state) || !reader.exhausted()) return false;
  apply(std::move(state));
  return true;
}

bool SnipRh::read_checkpoint(ckpt::TokenReader& reader,
                             Checkpoint& state) const {
  state.tcontact_s = tcontact_s_;
  state.upload_bytes = upload_bytes_;
  return reader.expect("snip-rh-v1") &&
         read_mask_bits(reader, state.mask_bits) &&
         state.mask_bits.size() == mask_.slot_count() &&
         read_ewma(reader, state.tcontact_s) &&
         read_ewma(reader, state.upload_bytes);
}

void SnipRh::apply(Checkpoint state) {
  mask_ = RushHourMask{mask_.epoch(), state.mask_bits};
  tcontact_s_ = state.tcontact_s;
  upload_bytes_ = state.upload_bytes;
  refresh_cycle();
}

void SnipRh::reset() {
  tcontact_s_ =
      stats::Ewma{config_.length_ewma_weight, config_.initial_tcontact_s};
  upload_bytes_ = stats::Ewma{kUploadEwmaWeight};
  refresh_cycle();
}

}  // namespace snipr::core
