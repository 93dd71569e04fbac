#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/energy/energy_model.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/node/data_buffer.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/node/node_block.hpp"
#include "snipr/node/scheduler.hpp"
#include "snipr/sim/simulator.hpp"

/// \file sensor_node.hpp
/// The duty-cycled sensor node (Contiki-substitute state machine).
///
/// One SNIP probing wakeup (Sec. III):
///   1. radio on, transmit a beacon (beacon_airtime);
///   2. listen for a reply until Ton expires;
///   3. on reply: the contact is probed — switch to a transfer session,
///      uploading buffered data until the mobile leaves range or the
///      buffer drains; then radio off;
///   4. on no reply: radio off after Ton.
///
/// Probing overhead Φ is the radio-on time of steps 1-2 (charged against
/// the per-epoch probing budget); transfer airtime is metered separately,
/// matching the paper's Table I definition of Φ.
///
/// The node is its own event loop, written as firmware writes it: two
/// timers, not an event queue (DESIGN.md, "A node is two timers"). One
/// holds the next CPU wakeup or, while a transfer runs, its end; the
/// other holds the epoch boundary. run_until() fires them in time order.
///
/// The per-wakeup-mutated counters (Φ, ζ, bytes, wakeups, budget, the
/// retiming hints) are one node::NodeCounters, held by value, or an entry
/// of a caller's node::NodeBlock when several nodes run on one
/// sim::Simulator. node::run_lone_node (lone_node.hpp) runs a node alone
/// and summarises it; every single-node experiment and every fleet node
/// runs that way.

namespace snipr::fault {
class NodeFaultInjector;
}  // namespace snipr::fault

namespace snipr::node {

struct SensorNodeConfig {
  /// Radio-on time per probing wakeup (SNIP's Ton).
  sim::Duration ton{sim::Duration::milliseconds(20)};
  /// Epoch length for budget/statistics (Tepoch).
  sim::Duration epoch{sim::Duration::hours(24)};
  /// Per-epoch probing-energy budget Φmax (radio-on time).
  sim::Duration budget_limit{sim::Duration::max()};
  /// Data generation rate, bytes/second.
  double sensing_rate_bps{1.0};
  /// Epochs the run is expected to simulate (0 = unknown). Drivers that
  /// know their horizon set it so the per-epoch history is reserved up
  /// front instead of growing geometrically across a long run
  /// (node::run_lone_node sets it from its horizon).
  std::size_t expected_epochs{0};
  /// Retain the per-epoch EpochStats history (one entry per epoch), the
  /// input of every run-level summary; node::run_lone_node always turns
  /// it on. A caller that never summarises a node may turn it off.
  bool record_epoch_history{true};
  /// Retain the per-contact ProbedContactRecord log. Needed only by
  /// consumers that replay individual sessions (the store-and-forward
  /// collection pass, miss-ratio drill-downs); the probed-session *count*
  /// is maintained in the node's counters either way.
  bool record_probed_contacts{true};
};

/// Per-epoch outcome counters, snapshotted at each epoch boundary.
struct EpochStats {
  std::int64_t epoch_index{0};
  sim::Duration phi{};             ///< probing radio-on time
  sim::Duration zeta{};            ///< probed contact capacity (ground truth)
  double bytes_uploaded{0.0};
  std::uint64_t contacts_probed{0};
  std::uint64_t wakeups{0};        ///< probing wakeups performed
  double probing_energy_j{0.0};    ///< Joules spent probing
  double transfer_energy_j{0.0};   ///< Joules spent transferring
};

/// Ground-truth record of one probed contact (for miss-ratio analysis).
struct ProbedContactRecord {
  contact::Contact contact;
  sim::TimePoint probe_time;
  double bytes_uploaded{0.0};
};

class SensorNode {
 public:
  /// The channel and scheduler must outlive the node; the stateless sink
  /// is not kept. Call start() once, then run_until(). This standalone
  /// form holds its counters.
  SensorNode(radio::Channel& channel, MobileNode& /*sink*/,
             Scheduler& scheduler, SensorNodeConfig config);

  /// Block form, for several nodes run side by side: start() puts the
  /// node on `simulator`, whose run_until() runs it, and the counters
  /// are `block.lanes[lane]`. The simulator and block are the caller's
  /// and must outlive the node's runs.
  SensorNode(sim::Simulator& simulator, radio::Channel& channel,
             MobileNode& /*sink*/, Scheduler& scheduler,
             SensorNodeConfig config, NodeBlock& block, std::size_t lane);

  /// A simulator may hold `this`, and the counters may be the node's own.
  SensorNode(const SensorNode&) = delete;
  SensorNode& operator=(const SensorNode&) = delete;

  /// Arm the first CPU wakeup now and the first epoch boundary one epoch
  /// later; the block form starts at its simulator's now().
  void start();

  /// Fire every timer due at or before `until`, in (time, arm order),
  /// then idle the clock forward to `until`. Returns the events executed,
  /// counting the wakeups a fast-forward resolved. Throws
  /// std::logic_error on a bound before now().
  std::size_t run_until(sim::TimePoint until);

  /// The node's clock.
  [[nodiscard]] sim::TimePoint now() const noexcept { return now_; }

  [[nodiscard]] const SensorNodeConfig& config() const noexcept {
    return config_;
  }

  /// Epochs completed so far (snapshotted stats). Empty when
  /// `config.record_epoch_history` is off.
  [[nodiscard]] const std::vector<EpochStats>& epoch_history() const noexcept {
    return history_;
  }
  /// Counters for the epoch in progress.
  [[nodiscard]] EpochStats current_epoch() const noexcept {
    return epoch_stats(probing_meter_.energy_j(), transfer_meter_.energy_j());
  }
  /// Every successfully probed contact since start(). Empty when
  /// `config.record_probed_contacts` is off (the count survives in
  /// counters().probed_sessions).
  [[nodiscard]] const std::vector<ProbedContactRecord>& probed_contacts()
      const noexcept {
    return probed_;
  }
  /// Move the history and the probed-contact log out of a finished node.
  [[nodiscard]] std::vector<EpochStats> take_epoch_history() noexcept {
    return std::move(history_);
  }
  [[nodiscard]] std::vector<ProbedContactRecord>
  take_probed_contacts() noexcept {
    return std::move(probed_);
  }
  [[nodiscard]] const FluidBuffer& buffer() const noexcept { return buffer_; }
  /// Probing radio-on time in the current epoch (the budget meter).
  [[nodiscard]] sim::Duration budget_used() const noexcept {
    return sim::Duration::microseconds(counters_->budget_used_us);
  }
  /// The counters this node writes.
  [[nodiscard]] const NodeCounters& counters() const noexcept {
    return *counters_;
  }

  /// Attach this node's fault-plan stream (fault::FaultPlan hands out one
  /// injector per node; must outlive the node). Null detaches. With no
  /// injector attached every fault path is skipped entirely — no RNG
  /// draw, no extra work — so fault-free runs stay byte-identical.
  void attach_faults(fault::NodeFaultInjector* faults) noexcept {
    faults_ = faults;
  }

 private:
  void cpu_wakeup();
  void schedule_next(sim::Duration delay);
  void snip_wakeup();
  /// After a SNIP miss at `t0` with next delay `cycle`: asks the
  /// scheduler how many of the next probes would repeat the verdict,
  /// proves that many miss too up to the first contact a probe lands in
  /// (stepping over the contacts the grid t0 + j·cycle falls between),
  /// and charges the run in one step (scheduler.hpp, repeat_bound).
  void fast_forward_misses(sim::TimePoint t0, sim::Duration cycle);
  /// The first `bound` wakeups now + j·delay cut to those that land
  /// strictly before the epoch timer and within the run bound (0 for a
  /// bound of 0).
  [[nodiscard]] std::int64_t within_limits(std::int64_t bound,
                                           sim::Duration delay) const;
  /// Count `events` wakeups resolved without firing, the last at `to`.
  void fast_forward(sim::TimePoint to, std::int64_t events) noexcept {
    now_ = to;
    events_ += static_cast<std::size_t>(events);
  }
  /// `new_session` is false when re-beaconing inside an already-probed
  /// contact (after an early buffer drain): more data may flow, but ζ,
  /// contact counts and learning observations are not double-counted.
  void begin_transfer(const contact::Contact& active, sim::TimePoint probe_time,
                      sim::Duration cycle_hint, bool new_session);
  /// The transfer timer fired: meter, deliver and report the session.
  void end_transfer();
  void epoch_boundary();
  /// The epoch in progress, given both meters' totals read once.
  [[nodiscard]] EpochStats epoch_stats(double probing_j,
                                       double transfer_j) const noexcept;
  /// Crash/reboot step of the epoch boundary (fault plan attached only):
  /// draw the crash, wipe or restore the scheduler, and track how many
  /// epochs the relearned mask needs to re-cover the pre-crash one.
  void crash_and_recovery_step();
  [[nodiscard]] SensorContext make_context() const;

  /// A timer: when it fires, and the order it was armed in, which breaks
  /// ties at one microsecond (the earlier armed fires first).
  struct Timer {
    sim::TimePoint at;
    std::uint64_t seq{0};
  };
  [[nodiscard]] Timer arm(sim::TimePoint at) noexcept {
    return {at, armed_++};
  }

  /// Null for the standalone form.
  sim::Simulator* simulator_{nullptr};
  radio::Channel& channel_;
  Scheduler& scheduler_;
  SensorNodeConfig config_;

  /// The standalone form's counters; `counters_` points here or into
  /// the caller's block.
  NodeCounters own_counters_;
  NodeCounters* counters_{&own_counters_};

  FluidBuffer buffer_;
  energy::EnergyMeter probing_meter_;
  energy::EnergyMeter transfer_meter_;

  sim::TimePoint now_{sim::TimePoint::zero()};
  /// The next CPU wakeup, or the end of the transfer in progress.
  Timer next_;
  bool next_is_transfer_{false};
  /// The next epoch boundary.
  Timer epoch_;
  std::uint64_t armed_{0};
  /// The running run_until()'s bound and events so far.
  sim::TimePoint bound_{sim::TimePoint::zero()};
  std::size_t events_{0};

  /// The transfer in progress (valid while next_is_transfer_).
  contact::Contact transfer_contact_{};
  sim::TimePoint transfer_probe_time_{};
  sim::Duration transfer_cycle_{};
  bool transfer_saw_departure_{false};
  bool transfer_new_session_{false};

  std::int64_t epoch_index_{0};
  std::vector<EpochStats> history_;
  std::vector<ProbedContactRecord> probed_;
  double probing_j_mark_{0.0};
  double transfer_j_mark_{0.0};
  bool started_{false};

  /// Fault plane (null = no faults; every hook is then skipped).
  fault::NodeFaultInjector* faults_{nullptr};
  /// Scheduler checkpoint refreshed each epoch boundary (restore mode).
  std::string checkpoint_;
  /// The last rush mask seen before a crash — the re-convergence target.
  /// Frozen while re-converging, refreshed each healthy epoch otherwise.
  std::vector<bool> last_good_mask_bits_;
  bool reconverging_{false};
};

}  // namespace snipr::node
