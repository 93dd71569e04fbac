#include "snipr/trace/one_format.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>

namespace snipr::trace {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("ONE report line " + std::to_string(line) + ": " +
                           what);
}

/// Largest accepted timestamp, seconds: anything bigger (or non-finite —
/// from_chars accepts "nan"/"inf") would overflow the simulator's signed
/// 64-bit microsecond ticks when converted (found by the fuzz harness).
constexpr double kMaxTimestampS = 9.0e12;

/// Next whitespace-separated token of `line` starting at `pos` (advanced
/// past the token); empty when the line is exhausted. Mirrors operator>>
/// on an istringstream, including ignoring trailing fields.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
    ++pos;
  }
  const std::size_t start = pos;
  while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t' &&
         line[pos] != '\r') {
    ++pos;
  }
  return line.substr(start, pos - start);
}

/// Sorted, disjoint merged-contact window plus the open-contact map: the
/// whole state a streaming parse keeps. A closed contact is buffered here
/// until no later event can start before it ends, then emitted.
class MergeWindow {
 public:
  explicit MergeWindow(const std::function<void(const contact::Contact&)>& sink)
      : sink_{sink} {}

  /// Insert a closed contact, eagerly merging it with any buffered
  /// overlap (strict: touching contacts stay separate). Indexed access
  /// throughout: deque::insert/erase invalidate every iterator.
  void insert(const contact::Contact& c) {
    const std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(pending_.begin(), pending_.end(), c,
                         [](const contact::Contact& a,
                            const contact::Contact& b) {
                           return a.arrival < b.arrival;
                         }) -
        pending_.begin());
    std::size_t at = idx;
    if (idx > 0 && c.arrival < pending_[idx - 1].departure()) {
      // Grow the predecessor over this contact instead of inserting.
      at = idx - 1;
      const sim::TimePoint end =
          std::max(pending_[at].departure(), c.departure());
      pending_[at].length = end - pending_[at].arrival;
    } else {
      pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(idx),
                      c);
    }
    // Absorb successors the (possibly grown) span now reaches into.
    while (at + 1 < pending_.size() &&
           pending_[at + 1].arrival < pending_[at].departure()) {
      const sim::TimePoint end =
          std::max(pending_[at].departure(), pending_[at + 1].departure());
      pending_[at].length = end - pending_[at].arrival;
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(at) + 1);
    }
  }

  /// Emit every buffered span no future contact can reach: future
  /// arrivals are >= `bound`, and touching does not merge, so any span
  /// ending at or before it is final.
  void flush(sim::TimePoint bound) {
    while (!pending_.empty() && pending_.front().departure() <= bound) {
      sink_(pending_.front());
      ++emitted_;
      pending_.pop_front();
    }
  }

  /// Collapse every span a contact open since `min_open_up` will absorb
  /// anyway — the unflushed suffix, whose departures all exceed
  /// min_open_up (departures increase across disjoint sorted spans), so
  /// each one overlaps that open contact's eventual interval. Without
  /// this, one long-lived contact spanning many short ones would grow
  /// the window O(events), not O(concurrent peers): the short closes
  /// could neither flush nor merge until the long contact finally came
  /// down.
  void compact(sim::TimePoint min_open_up) {
    while (pending_.size() > 1 &&
           pending_[pending_.size() - 2].departure() > min_open_up) {
      contact::Contact& a = pending_[pending_.size() - 2];
      const sim::TimePoint end =
          std::max(a.departure(), pending_.back().departure());
      a.length = end - a.arrival;
      pending_.pop_back();
    }
  }

  void flush_all() { flush(sim::TimePoint::max()); }

  [[nodiscard]] std::size_t size() const noexcept { return pending_.size(); }
  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }

 private:
  const std::function<void(const contact::Contact&)>& sink_;
  std::deque<contact::Contact> pending_;
  std::size_t emitted_{0};
};

}  // namespace

OneStreamStats stream_one_connectivity(
    std::istream& is, const std::string& host,
    const std::function<void(const contact::Contact&)>& sink) {
  OneStreamStats stats;
  std::string line;
  std::size_t line_no = 0;
  double last_time = 0.0;
  // Open contact per peer: peer -> up time.
  std::map<std::string, double, std::less<>> open;
  MergeWindow window{sink};

  auto close = [&](std::string_view peer, double up_s, double down_s,
                   std::size_t at_line) {
    if (down_s < up_s) {
      fail(at_line, "down precedes up for " + std::string{peer});
    }
    // Compare on the simulator's microsecond grid, not in double space: a
    // sub-tick interval (down - up < 0.5 us) would otherwise round to a
    // zero-length contact and violate the positive-length contract
    // (found by the fuzz harness). Zero-length contacts are dropped.
    const sim::TimePoint arrival =
        sim::TimePoint::zero() + sim::Duration::seconds(up_s);
    const sim::TimePoint departure =
        sim::TimePoint::zero() + sim::Duration::seconds(down_s);
    if (departure <= arrival) return;
    window.insert(contact::Contact{arrival, departure - arrival});
  };
  auto min_open_up = [&] {
    double lo = last_time;
    for (const auto& [peer, up_s] : open) lo = std::min(lo, up_s);
    return lo;
  };

  while (std::getline(is, line)) {
    ++line_no;
    ++stats.lines;
    if (line.empty() || line[0] == '#') continue;
    std::size_t pos = 0;
    const std::string_view time_s = next_token(line, pos);
    const std::string_view tag = next_token(line, pos);
    const std::string_view h1 = next_token(line, pos);
    const std::string_view h2 = next_token(line, pos);
    const std::string_view direction = next_token(line, pos);
    if (direction.empty()) {
      fail(line_no, "expected '<time> CONN <h1> <h2> up|down'");
    }
    if (tag != "CONN") continue;  // other report types interleave: skip
    double t = 0.0;
    const auto [ptr, ec] =
        std::from_chars(time_s.data(), time_s.data() + time_s.size(), t);
    if (ec != std::errc{} || ptr != time_s.data() + time_s.size()) {
      fail(line_no, "bad timestamp '" + std::string{time_s} + "'");
    }
    // !(t >= 0) also rejects NaN, which would poison the monotonicity
    // check below (every comparison against NaN is false).
    if (!(t >= 0.0) || t > kMaxTimestampS) {
      fail(line_no, "timestamp out of range '" + std::string{time_s} + "'");
    }
    if (t < last_time) fail(line_no, "timestamps must be non-decreasing");
    last_time = t;
    if (h1 != host && h2 != host) continue;
    ++stats.conn_events;
    const std::string_view peer = h1 == host ? h2 : h1;
    if (direction == "up") {
      // re-up of an open contact keeps the earlier start
      open.emplace(peer, t);
    } else if (direction == "down") {
      const auto it = open.find(peer);
      if (it == open.end()) {
        fail(line_no, "down without up for peer " + std::string{peer});
      }
      close(peer, it->second, t, line_no);
      open.erase(it);
    } else {
      fail(line_no, "unknown direction '" + std::string{direction} + "'");
    }
    stats.peak_window =
        std::max(stats.peak_window, open.size() + window.size());
    // A buffered span is final once every possible future arrival — an
    // open peer's up time or a not-yet-seen event at >= last_time — lies
    // at or past its departure; whatever cannot flush yet is destined to
    // merge into the oldest open contact and is collapsed provisionally.
    const sim::TimePoint bound =
        sim::TimePoint::zero() + sim::Duration::seconds(min_open_up());
    window.flush(bound);
    if (!open.empty()) window.compact(bound);
  }
  // Close dangling contacts at the last observed time.
  for (const auto& [peer, up_s] : open) {
    close(peer, up_s, last_time, line_no);
  }
  stats.peak_window = std::max(stats.peak_window, window.size());
  window.flush_all();
  stats.contacts = window.emitted();
  return stats;
}

std::vector<contact::Contact> read_one_connectivity(std::istream& is,
                                                    const std::string& host) {
  std::vector<contact::Contact> contacts;
  (void)stream_one_connectivity(
      is, host, [&](const contact::Contact& c) { contacts.push_back(c); });
  return contacts;
}

std::vector<contact::Contact> read_one_connectivity_file(
    const std::string& path, const std::string& host) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return read_one_connectivity(is, host);
}

}  // namespace snipr::trace
