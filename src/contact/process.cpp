#include "snipr/contact/process.hpp"

#include <stdexcept>
#include <utility>

namespace snipr::contact {

namespace {

std::vector<std::unique_ptr<sim::Distribution>> replicate_distribution(
    const ArrivalProfile& profile, std::unique_ptr<sim::Distribution> dist) {
  if (dist == nullptr) {
    throw std::invalid_argument(
        "IntervalContactProcess: contact length distribution required");
  }
  std::vector<std::unique_ptr<sim::Distribution>> per_slot;
  per_slot.reserve(profile.slot_count());
  for (SlotIndex s = 0; s + 1 < profile.slot_count(); ++s) {
    per_slot.push_back(dist->clone());
  }
  per_slot.push_back(std::move(dist));
  return per_slot;
}

}  // namespace

IntervalContactProcess::IntervalContactProcess(
    ArrivalProfile profile, std::unique_ptr<sim::Distribution> contact_length,
    IntervalJitter jitter)
    : IntervalContactProcess{
          profile, replicate_distribution(profile, std::move(contact_length)),
          jitter} {}

IntervalContactProcess::IntervalContactProcess(
    ArrivalProfile profile,
    std::vector<std::unique_ptr<sim::Distribution>> lengths_per_slot,
    IntervalJitter jitter)
    : profile_{std::move(profile)},
      lengths_per_slot_{std::move(lengths_per_slot)},
      jitter_{jitter},
      has_live_slots_{profile_.expected_contacts_per_epoch() > 0.0} {
  if (lengths_per_slot_.size() != profile_.slot_count()) {
    throw std::invalid_argument(
        "IntervalContactProcess: one length distribution per slot required");
  }
  for (const auto& dist : lengths_per_slot_) {
    if (dist == nullptr) {
      throw std::invalid_argument(
          "IntervalContactProcess: null length distribution");
    }
  }
}

double IntervalContactProcess::draw_interval_s(SlotIndex slot,
                                               bool fresh_slot,
                                               sim::Rng& rng) const {
  const double mean = profile_.mean_interval_s(slot);
  switch (jitter_) {
    case IntervalJitter::kNone:
      return mean;
    case IntervalJitter::kNormalTenth: {
      if (fresh_slot) {
        // Equilibrium residual at the slot start keeps the rate at 1/m
        // (see the class comment).
        return rng.uniform(0.0, mean);
      }
      // The paper's simulation draws Tinterval from a normal with
      // "small deviation (a tenth of the mean)" (Sec. VII-A.2).
      const sim::TruncatedNormalDistribution dist{mean, mean / 10.0};
      return dist.sample(rng);
    }
  }
  return mean;
}

std::optional<Contact> IntervalContactProcess::next(sim::Rng& rng) {
  if (!has_live_slots_) return std::nullopt;
  for (;;) {
    const SlotIndex slot = profile_.slot_of(cursor_);
    const sim::TimePoint slot_end =
        profile_.slot_start(cursor_) + profile_.slot_length();
    if (profile_.mean_interval_s(slot) == ArrivalProfile::kNoContacts) {
      cursor_ = slot_end;
      fresh_slot_ = true;
      continue;
    }
    sim::TimePoint arrival =
        cursor_ +
        sim::Duration::seconds(draw_interval_s(slot, fresh_slot_, rng));
    if (arrival > slot_end) {
      cursor_ = slot_end;  // renewal restarts in the next slot
      fresh_slot_ = true;
      continue;
    }
    if (arrival == slot_end &&
        profile_.mean_interval_s(profile_.slot_of(arrival)) ==
            ArrivalProfile::kNoContacts) {
      // A boundary arrival belongs to the next slot; if that slot is dead
      // it produces no contacts.
      cursor_ = slot_end;
      fresh_slot_ = true;
      continue;
    }
    if (previous_.has_value() && arrival < previous_->departure()) {
      arrival = previous_->departure();
    }
    // Length drawn from the distribution of the arrival's slot.
    const double length_s =
        lengths_per_slot_[profile_.slot_of(arrival)]->sample(rng);
    const Contact c{arrival, sim::Duration::seconds(length_s)};
    previous_ = c;
    cursor_ = arrival;
    fresh_slot_ = arrival == slot_end;  // boundary arrival opens a new slot
    return c;
  }
}

std::vector<Contact> materialize(ContactProcess& process,
                                 sim::Duration horizon, sim::Rng& rng) {
  const sim::TimePoint end = sim::TimePoint::zero() + horizon;
  std::vector<Contact> out;
  for (;;) {
    const auto c = process.next(rng);
    if (!c.has_value() || c->arrival >= end) break;
    out.push_back(*c);
  }
  return out;
}

}  // namespace snipr::contact
