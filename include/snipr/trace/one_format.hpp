#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "snipr/contact/contact.hpp"

/// \file one_format.hpp
/// Importer for ONE-simulator connectivity reports.
///
/// The ONE DTN simulator's ConnectivityONEReport writes one event per
/// line:
///
///     <time_s> CONN <host1> <host2> up|down
///
/// which is the de-facto interchange format for DTN contact traces.
/// This importer extracts, for a chosen host (the sensor node), the
/// contact intervals with every peer — giving real-world mobility
/// datasets a direct path into the snipr pipeline (trace -> slot stats ->
/// rush-hour mask -> SNIP-RH, or trace -> TraceReplayProcess ->
/// Simulator).
///
/// The core is streaming: events are parsed line by line and merged
/// contacts are emitted through a callback as soon as no later event can
/// still overlap them, holding only the window of open and pending
/// contacts (bounded by the number of concurrently-in-range peers), not
/// the whole event list. Multi-megabyte traces therefore parse in O(1)
/// memory; `read_one_connectivity` is a thin collector on top.

namespace snipr::trace {

/// Counters from one streaming parse.
struct OneStreamStats {
  std::size_t lines{0};        ///< lines read, including skipped ones
  std::size_t conn_events{0};  ///< CONN events involving the host
  std::size_t contacts{0};     ///< merged contacts emitted
  /// Peak open + pending-merge contacts held at once — the importer's
  /// actual memory high-water mark, O(concurrent peers), not O(events).
  std::size_t peak_window{0};
};

/// Streaming core: parse a ONE connectivity report and emit the merged
/// contacts of `host` (intervals between an `up` and the matching `down`
/// involving it) through `sink`, in arrival order. Overlapping contacts
/// with different peers are merged, matching the reference model's
/// one-mobile-at-a-time channel; an `up` without a `down` is closed at
/// the last event time.
///
/// Throws std::runtime_error (with a line number) on malformed input:
/// non-numeric time, unknown direction, down-without-up, non-monotonic
/// timestamps. Contacts already emitted before the bad line stand.
OneStreamStats stream_one_connectivity(
    std::istream& is, const std::string& host,
    const std::function<void(const contact::Contact&)>& sink);

/// Collect the streaming core's output into a vector, sorted by arrival.
[[nodiscard]] std::vector<contact::Contact> read_one_connectivity(
    std::istream& is, const std::string& host);

/// File variant; throws std::runtime_error when the file cannot be opened.
[[nodiscard]] std::vector<contact::Contact> read_one_connectivity_file(
    const std::string& path, const std::string& host);

}  // namespace snipr::trace
