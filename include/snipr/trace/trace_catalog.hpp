#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/sim/time.hpp"
#include "snipr/trace/synthetic.hpp"

/// \file trace_catalog.hpp
/// The named trace-workload library.
///
/// The scenario catalog names *environments*; this catalog names
/// *traces*: concrete contact sequences a node or fleet can replay. Two
/// sources back the entries:
///
///  - **Checked-in corpora**: small ONE connectivity reports committed
///    under tests/data/one/, parsed with the production streaming
///    importer. The data directory resolves, in order, from an explicit
///    argument, the SNIPR_TRACE_DATA_DIR environment variable, and the
///    compiled-in source-tree default — so installed binaries can point
///    at their own corpus directory (this is also the hook for importing
///    a real CRAWDAD/ONE dataset; see DESIGN.md).
///  - **Generator-backed entries**: a `SyntheticTraceSpec` materialised
///    on demand. Unlimited trace corpora with zero bytes shipped; every
///    load reproduces the identical contacts.
///
/// Entries are resolvable from `snipr_cli trace NAME`, the scenario catalog
/// (trace-replay environments) and `deploy::FleetSpec::trace`
/// (heterogeneous fleets where each node replays its own slice).

namespace snipr::trace {

enum class TraceSource {
  kFile,       ///< ONE report under the catalog data directory
  kGenerator,  ///< materialised from a SyntheticTraceSpec
};

struct TraceEntry {
  std::string name;         ///< stable CLI / catalog identifier
  std::string description;  ///< one line, shown by `snipr_cli list traces`
  TraceSource source{TraceSource::kGenerator};
  /// kFile: report file name (relative to the data dir) and the sensor
  /// host whose contacts are extracted.
  std::string file;
  std::string host;
  /// kGenerator: the full recipe.
  SyntheticTraceSpec spec{};
  /// Slot layout the trace was recorded against: the epoch is the natural
  /// replay tiling period, `slots` the grid for profile estimation.
  sim::Duration epoch{sim::Duration::hours(24)};
  std::size_t slots{24};
};

/// Immutable registry of every named trace, built once per process.
class TraceCatalog {
 public:
  [[nodiscard]] static const TraceCatalog& instance();

  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Entry by name; nullptr when unknown.
  [[nodiscard]] const TraceEntry* find(std::string_view name) const;
  /// Entry by name; throws std::out_of_range listing every valid name.
  [[nodiscard]] const TraceEntry& at(std::string_view name) const;

  /// Materialise an entry's contacts (sorted, non-overlapping).
  /// Deterministic: same entry (and for file entries, same file bytes),
  /// same contacts. File entries resolve against `data_dir`, falling back
  /// to $SNIPR_TRACE_DATA_DIR and then the compiled-in default; throws
  /// std::runtime_error when the file cannot be read or parsed.
  [[nodiscard]] static std::vector<contact::Contact> load(
      const TraceEntry& entry, const std::string& data_dir = {});

  /// The directory file-backed entries resolve against when no override
  /// is given: $SNIPR_TRACE_DATA_DIR or the compiled-in default.
  [[nodiscard]] static std::string default_data_dir();

  /// The compiled-in corpus directory alone, ignoring the environment.
  /// Pinned environments (scenario-catalog replay entries) resolve here
  /// so an ad-hoc $SNIPR_TRACE_DATA_DIR override cannot silently swap
  /// the corpus behind a named, golden-pinned scenario.
  [[nodiscard]] static std::string compiled_data_dir();

 private:
  TraceCatalog();
  std::vector<TraceEntry> entries_;
};

/// The 48-slot multi-peak urban arterial flow: ten half-hour peak slots
/// (Tinterval 360 s) over a 1500 s base. Single-sourced here because the
/// `synthetic-metro-drift` trace entry and the scenario catalog's
/// multi-peak-urban / fleet environments must stay the same flow — a
/// drift between the planners' grid and the replayed workload would only
/// surface as an opaque golden diff.
[[nodiscard]] contact::ArrivalProfile metro_profile();

}  // namespace snipr::trace
