#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "snipr/core/batch_runner.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/deploy/fleet.hpp"
#include "snipr/trace/trace_catalog.hpp"

/// \file scenario_catalog.hpp
/// The named scenario library.
///
/// The paper evaluates one environment (the Sec. VII-A road-side network);
/// the catalog generalises that into a registry of named, documented
/// workloads — the paper's Fig. 5-8 configurations plus commuter,
/// night-shift, convoy, rural, urban and adversarial contact processes,
/// and one environment estimated from a ONE-simulator connectivity trace
/// through `trace::read_one_connectivity`. Every driver that used to
/// hand-roll a `RoadsideScenario` (snipr_cli, the fig benches, the golden
/// runner) now resolves an entry by name, so a scenario tweak lands in one
/// place and every consumer — including the golden regression corpus under
/// tests/golden/ — sees it.

namespace snipr::core {

/// One named scenario: the environment plus its published sweep defaults.
struct CatalogEntry {
  std::string name;         ///< stable CLI / JSON identifier
  std::string description;  ///< one line, shown by `snipr_cli list scenarios`
  RoadsideScenario scenario;
  /// Default per-epoch probing budget Φmax for this environment.
  double phi_max_s{86.4};
  /// Representative ζtarget sweep points (golden corpus grid).
  std::vector<double> zeta_targets_s{16.0, 56.0};
  /// Set on fleet entries (snipr_cli fleet NAME, the FleetEngine golden
  /// corpus): the multi-node deployment this environment describes.
  /// `scenario` then holds the per-node environment (mask, Ton, link)
  /// that every fleet node runs. Null on single-node entries.
  std::shared_ptr<const deploy::FleetSpec> fleet{};

  [[nodiscard]] bool is_fleet() const noexcept { return fleet != nullptr; }
};

/// Immutable registry of every named scenario, built once per process.
class ScenarioCatalog {
 public:
  /// The process-wide catalog.
  [[nodiscard]] static const ScenarioCatalog& instance();

  [[nodiscard]] const std::vector<CatalogEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Entry by name; nullptr when unknown.
  [[nodiscard]] const CatalogEntry* find(std::string_view name) const;

  /// Entry by name; throws std::out_of_range whose message lists every
  /// valid name (so CLI users see the menu, not a silent default).
  [[nodiscard]] const CatalogEntry& at(std::string_view name) const;


 private:
  ScenarioCatalog();
  std::vector<CatalogEntry> entries_;
};

/// The canonical sweep over one entry: all four strategies × the entry's
/// ζtarget points × its default budget × seeds 1..`seeds`, labelled with
/// the entry name. This is the grid the golden corpus pins down.
[[nodiscard]] SweepSpec catalog_sweep(const CatalogEntry& entry,
                                      std::size_t seeds, std::size_t epochs);

/// The one trace -> replay-environment rule, shared by the catalog's
/// replay entries and `snipr_cli trace NAME`: estimate the arrival profile
/// from `contacts` on the entry's slot grid, mark the top `rush_slots`
/// busiest slots as rush hours, and attach the contacts for exact replay
/// (tiled at the entry's epoch, with `replay_jitter_s` day-to-day jitter
/// under the jittered environment). Throws std::invalid_argument on an
/// empty contact list.
[[nodiscard]] RoadsideScenario make_replay_scenario(
    const trace::TraceEntry& entry,
    std::shared_ptr<const std::vector<contact::Contact>> contacts,
    std::size_t rush_slots, double replay_jitter_s);

}  // namespace snipr::core
