#pragma once

#include <iosfwd>
#include <vector>

#include "snipr/contact/contact.hpp"

/// \file trace_io.hpp
/// Contact-trace serialisation.
///
/// Traces are CSV files with the header `arrival_s,length_s`, one contact
/// per row, sorted by arrival. This is the interchange format between the
/// synthetic generators, real-world mobility datasets a user may import,
/// and the trace-driven contact process.

namespace snipr::trace {

/// Write `contacts` (sorted by arrival) as CSV to `os`.
void write_csv(std::ostream& os, const std::vector<contact::Contact>& contacts);

/// Parse a CSV trace. Throws std::runtime_error with a line number on
/// malformed input (bad header, non-numeric fields, negative lengths,
/// unsorted arrivals).
[[nodiscard]] std::vector<contact::Contact> read_csv(std::istream& is);

}  // namespace snipr::trace
