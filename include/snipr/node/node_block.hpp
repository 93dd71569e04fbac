#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "snipr/sim/time.hpp"

/// \file node_block.hpp
/// Struct-of-arrays hot state for a block of sensor nodes.
///
/// Every probing wakeup mutates a handful of per-node counters (Φ, ζ,
/// bytes, wakeups, the budget meter, the retiming hints). A NodeBlock
/// keeps them out of the node objects, in one contiguous lane per
/// field, allocated once for a whole fleet shard rather than once per
/// node; the shard's nodes write their own lanes, whether they run one
/// after another in their own event loops (the fleet engines) or
/// interleaved in one shared Simulator. The block also carries each
/// node's *streaming* run totals — per-epoch sums folded at every epoch
/// boundary — which is what lets a fleet run drop the per-epoch history
/// vector entirely (SensorNodeConfig::record_epoch_history) and still
/// summarise bit-identically: the fold performs the same double
/// additions, in the same epoch order, that summarising a retained
/// history would.
///
/// Each FleetEngine shard owns one block sized to its node range; the
/// single-node constructors of SensorNode own a private 1-lane block, so
/// standalone nodes keep their historical API.

namespace snipr::node {

class NodeBlock {
 public:
  /// Sentinel for `last_probed_arrival_us`: no contact probed yet.
  /// (A real arrival can never sit at the far negative edge of the time
  /// axis — simulations start at TimePoint::zero().)
  static constexpr std::int64_t kNoArrival =
      std::numeric_limits<std::int64_t>::min();

  explicit NodeBlock(std::size_t nodes)
      : size_{nodes},
        phi_us_(nodes, 0),
        zeta_us_(nodes, 0),
        bytes_uploaded_(nodes, 0.0),
        contacts_probed_(nodes, 0),
        wakeups_(nodes, 0),
        budget_used_us_(nodes, 0),
        last_wakeup_us_(nodes, 1'000'000),  // historical 1 s default
        last_probed_arrival_us_(nodes, kNoArrival),
        epochs_(nodes, 0),
        sum_zeta_s_(nodes, 0.0),
        sum_phi_s_(nodes, 0.0),
        sum_bytes_(nodes, 0.0),
        sum_contacts_(nodes, 0.0),
        probed_sessions_(nodes, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // --- Epoch-scoped counters (zeroed by fold_epoch) ---------------------
  [[nodiscard]] std::int64_t& phi_us(std::size_t lane) noexcept {
    return phi_us_[lane];
  }
  [[nodiscard]] std::int64_t phi_us(std::size_t lane) const noexcept {
    return phi_us_[lane];
  }
  [[nodiscard]] std::int64_t& zeta_us(std::size_t lane) noexcept {
    return zeta_us_[lane];
  }
  [[nodiscard]] std::int64_t zeta_us(std::size_t lane) const noexcept {
    return zeta_us_[lane];
  }
  [[nodiscard]] double& bytes_uploaded(std::size_t lane) noexcept {
    return bytes_uploaded_[lane];
  }
  [[nodiscard]] double bytes_uploaded(std::size_t lane) const noexcept {
    return bytes_uploaded_[lane];
  }
  [[nodiscard]] std::uint64_t& contacts_probed(std::size_t lane) noexcept {
    return contacts_probed_[lane];
  }
  [[nodiscard]] std::uint64_t contacts_probed(std::size_t lane) const noexcept {
    return contacts_probed_[lane];
  }
  [[nodiscard]] std::uint64_t& wakeups(std::size_t lane) noexcept {
    return wakeups_[lane];
  }
  [[nodiscard]] std::uint64_t wakeups(std::size_t lane) const noexcept {
    return wakeups_[lane];
  }
  [[nodiscard]] std::int64_t& budget_used_us(std::size_t lane) noexcept {
    return budget_used_us_[lane];
  }
  [[nodiscard]] std::int64_t budget_used_us(std::size_t lane) const noexcept {
    return budget_used_us_[lane];
  }
  /// The scheduler's most recent next_wakeup decision (the retiming hint
  /// re-applied after a transfer completes).
  [[nodiscard]] std::int64_t& last_wakeup_us(std::size_t lane) noexcept {
    return last_wakeup_us_[lane];
  }
  /// Arrival timestamp of the last probed contact (kNoArrival = none) —
  /// the new-session test that keeps re-probes of one contact from
  /// double-counting ζ.
  [[nodiscard]] std::int64_t& last_probed_arrival_us(
      std::size_t lane) noexcept {
    return last_probed_arrival_us_[lane];
  }

  // --- Run-scoped streaming totals --------------------------------------
  [[nodiscard]] std::uint64_t epochs(std::size_t lane) const noexcept {
    return epochs_[lane];
  }
  [[nodiscard]] double sum_zeta_s(std::size_t lane) const noexcept {
    return sum_zeta_s_[lane];
  }
  [[nodiscard]] double sum_phi_s(std::size_t lane) const noexcept {
    return sum_phi_s_[lane];
  }
  [[nodiscard]] double sum_bytes(std::size_t lane) const noexcept {
    return sum_bytes_[lane];
  }
  [[nodiscard]] double sum_contacts(std::size_t lane) const noexcept {
    return sum_contacts_[lane];
  }
  /// Probed sessions over the whole run (the numerator of miss_ratio),
  /// maintained whether or not per-contact records are retained.
  [[nodiscard]] std::uint64_t& probed_sessions(std::size_t lane) noexcept {
    return probed_sessions_[lane];
  }
  [[nodiscard]] std::uint64_t probed_sessions(std::size_t lane) const noexcept {
    return probed_sessions_[lane];
  }

  /// Fold the lane's epoch counters into its streaming totals — the same
  /// `+= value.to_seconds()` additions, in the same epoch order, that
  /// summarising a retained history performs — then zero the epoch
  /// counters (including the budget meter: a fold IS the epoch boundary).
  void fold_epoch(std::size_t lane) noexcept {
    sum_zeta_s_[lane] += sim::Duration::microseconds(zeta_us_[lane]).to_seconds();
    sum_phi_s_[lane] += sim::Duration::microseconds(phi_us_[lane]).to_seconds();
    sum_bytes_[lane] += bytes_uploaded_[lane];
    sum_contacts_[lane] += static_cast<double>(contacts_probed_[lane]);
    ++epochs_[lane];
    phi_us_[lane] = 0;
    zeta_us_[lane] = 0;
    bytes_uploaded_[lane] = 0.0;
    contacts_probed_[lane] = 0;
    wakeups_[lane] = 0;
    budget_used_us_[lane] = 0;
  }

 private:
  std::size_t size_;
  // Epoch-scoped lanes.
  std::vector<std::int64_t> phi_us_;
  std::vector<std::int64_t> zeta_us_;
  std::vector<double> bytes_uploaded_;
  std::vector<std::uint64_t> contacts_probed_;
  std::vector<std::uint64_t> wakeups_;
  std::vector<std::int64_t> budget_used_us_;
  std::vector<std::int64_t> last_wakeup_us_;
  std::vector<std::int64_t> last_probed_arrival_us_;
  // Run-scoped streaming lanes.
  std::vector<std::uint64_t> epochs_;
  std::vector<double> sum_zeta_s_;
  std::vector<double> sum_phi_s_;
  std::vector<double> sum_bytes_;
  std::vector<double> sum_contacts_;
  std::vector<std::uint64_t> probed_sessions_;
};

}  // namespace snipr::node
