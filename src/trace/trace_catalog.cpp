#include "snipr/trace/trace_catalog.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "snipr/trace/one_format.hpp"

#ifndef SNIPR_ONE_DATA_DIR
#define SNIPR_ONE_DATA_DIR ""
#endif

namespace snipr::trace {
namespace {

contact::ArrivalProfile profile24(std::vector<double> intervals) {
  return contact::ArrivalProfile{sim::Duration::hours(24),
                                 std::move(intervals)};
}

std::vector<TraceEntry> build_entries() {
  std::vector<TraceEntry> entries;

  // 1. Checked-in corpus: three days at a campus gate, written in the
  // exact ConnectivityONEReport format (committed under tests/data/one/).
  {
    TraceEntry e;
    e.name = "campus-3day";
    e.description =
        "checked-in 3-day campus-gate ONE report, twin commute peaks";
    e.source = TraceSource::kFile;
    e.file = "campus_3day.txt";
    e.host = "s0";
    entries.push_back(std::move(e));
  }

  // 2. The importer's tiny commuter fixture, exposed as a loadable trace
  // so the CLI can demonstrate the file path end to end.
  {
    TraceEntry e;
    e.name = "commuter-fixture";
    e.description = "one-morning importer fixture (merge/closure cases)";
    e.source = TraceSource::kFile;
    e.file = "commuter.txt";
    e.host = "s0";
    entries.push_back(std::move(e));
  }

  // 3. Two synthetic weeks of the paper's road-side flow: the generator
  // equivalent of the Sec. VII-A environment as a trace.
  {
    TraceEntry e;
    e.name = "synthetic-roadside-2w";
    e.description = "14 generated epochs of the paper's road-side flow";
    e.spec.profile = contact::ArrivalProfile::roadside();
    e.spec.epochs = 14;
    e.spec.seed = 42;
    entries.push_back(std::move(e));
  }

  // 4. Six days of the 48-slot metro flow whose peaks drift one slot
  // later every day — the seasonal-shift workload the adaptive learner
  // has to chase, as a replayable trace.
  {
    TraceEntry e;
    e.name = "synthetic-metro-drift";
    e.description =
        "6 generated epochs, 48-slot metro peaks drifting +1 slot/day";
    e.spec.profile = metro_profile();
    e.spec.epochs = 6;
    e.spec.seed = 7;
    e.spec.drift_slots_per_epoch = 1;
    e.slots = 48;
    entries.push_back(std::move(e));
  }

  // 5. An adversarial flat flow: no structure for a mask to find. Replay
  // must degrade SNIP-RH gracefully, exactly like the generative
  // flat-adversarial scenario.
  {
    TraceEntry e;
    e.name = "synthetic-flat";
    e.description = "7 generated epochs of a structureless uniform flow";
    e.spec.profile = profile24(std::vector<double>(24, 900.0));
    e.spec.epochs = 7;
    e.spec.seed = 11;
    entries.push_back(std::move(e));
  }

  return entries;
}

}  // namespace

contact::ArrivalProfile metro_profile() {
  std::vector<double> intervals(48, 1500.0);
  for (const std::size_t s : {14U, 15U, 18U, 19U, 24U, 25U, 34U, 35U, 38U,
                              39U}) {
    intervals[s] = 360.0;
  }
  return contact::ArrivalProfile{sim::Duration::hours(24),
                                 std::move(intervals)};
}

TraceCatalog::TraceCatalog() : entries_{build_entries()} {}

const TraceCatalog& TraceCatalog::instance() {
  static const TraceCatalog catalog;
  return catalog;
}

const TraceEntry* TraceCatalog::find(std::string_view name) const {
  for (const TraceEntry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const TraceEntry& TraceCatalog::at(std::string_view name) const {
  if (const TraceEntry* entry = find(name)) return *entry;
  std::string message = "unknown trace '";
  message += name;
  message += "'; valid names:";
  for (const TraceEntry& entry : entries_) {
    message += ' ';
    message += entry.name;
  }
  throw std::out_of_range(message);
}

std::string TraceCatalog::default_data_dir() {
  if (const char* env = std::getenv("SNIPR_TRACE_DATA_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return SNIPR_ONE_DATA_DIR;
}

std::string TraceCatalog::compiled_data_dir() { return SNIPR_ONE_DATA_DIR; }

std::vector<contact::Contact> TraceCatalog::load(
    const TraceEntry& entry, const std::string& data_dir) {
  switch (entry.source) {
    case TraceSource::kFile: {
      const std::string dir =
          data_dir.empty() ? default_data_dir() : data_dir;
      return read_one_connectivity_file(dir + "/" + entry.file, entry.host);
    }
    case TraceSource::kGenerator:
      return SyntheticTraceGenerator{entry.spec}.generate();
  }
  throw std::logic_error("TraceCatalog::load: unknown source");
}

}  // namespace snipr::trace
