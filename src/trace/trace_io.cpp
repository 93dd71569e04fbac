#include "snipr/trace/trace_io.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace snipr::trace {
namespace {

constexpr std::string_view kHeader = "arrival_s,length_s";

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("trace csv line " + std::to_string(line) + ": " +
                           what);
}

double parse_double(std::string_view field, std::size_t line) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    fail(line, "expected a number, got '" + std::string{field} + "'");
  }
  return value;
}

}  // namespace

void write_csv(std::ostream& os,
               const std::vector<contact::Contact>& contacts) {
  os << kHeader << '\n';
  // Fixed six decimals = exact microsecond resolution: a written trace
  // re-reads to the identical schedule (round-trip tested).
  char row[64];
  for (const contact::Contact& c : contacts) {
    std::snprintf(row, sizeof row, "%.6f,%.6f\n", c.arrival.to_seconds(),
                  c.length.to_seconds());
    os << row;
  }
}

std::vector<contact::Contact> read_csv(std::istream& is) {
  std::string line;
  std::size_t line_no = 1;
  if (!std::getline(is, line) || line != kHeader) {
    fail(line_no, "expected header '" + std::string{kHeader} + "'");
  }
  std::vector<contact::Contact> contacts;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) fail(line_no, "expected two fields");
    const double arrival_s =
        parse_double(std::string_view{line}.substr(0, comma), line_no);
    const double length_s =
        parse_double(std::string_view{line}.substr(comma + 1), line_no);
    if (arrival_s < 0.0) fail(line_no, "negative arrival");
    if (length_s <= 0.0) fail(line_no, "non-positive length");
    const contact::Contact c{
        sim::TimePoint::zero() + sim::Duration::seconds(arrival_s),
        sim::Duration::seconds(length_s)};
    if (!contacts.empty() && c.arrival < contacts.back().arrival) {
      fail(line_no, "arrivals must be sorted");
    }
    contacts.push_back(c);
  }
  return contacts;
}

}  // namespace snipr::trace
