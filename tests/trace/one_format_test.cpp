#include "snipr/trace/one_format.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "snipr/contact/schedule.hpp"

namespace snipr::trace {
namespace {

using contact::Contact;
using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

std::vector<Contact> parse(const std::string& text,
                           const std::string& host = "s0") {
  std::istringstream is{text};
  return read_one_connectivity(is, host);
}

TEST(OneFormat, SingleContact) {
  const auto contacts = parse(
      "100 CONN s0 m1 up\n"
      "102 CONN s0 m1 down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].arrival, at_s(100));
  EXPECT_EQ(contacts[0].length, Duration::seconds(2));
}

TEST(OneFormat, HostMayBeEitherColumn) {
  const auto contacts = parse(
      "10 CONN m7 s0 up\n"
      "15 CONN m7 s0 down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].length, Duration::seconds(5));
}

TEST(OneFormat, IgnoresOtherHostsAndComments) {
  const auto contacts = parse(
      "# ConnectivityONEReport\n"
      "5 CONN a b up\n"
      "10 CONN s0 m1 up\n"
      "11 CONN a b down\n"
      "12 CONN s0 m1 down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].arrival, at_s(10));
}

TEST(OneFormat, InterleavedPeersMerge) {
  // m1 is up [10, 14), m2 overlaps [12, 16): one merged contact [10, 16).
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "12 CONN s0 m2 up\n"
      "14 CONN s0 m1 down\n"
      "16 CONN s0 m2 down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].arrival, at_s(10));
  EXPECT_EQ(contacts[0].departure(), at_s(16));
}

TEST(OneFormat, DisjointContactsStaySeparate) {
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "12 CONN s0 m1 down\n"
      "100 CONN s0 m2 up\n"
      "103 CONN s0 m2 down\n");
  ASSERT_EQ(contacts.size(), 2U);
  EXPECT_EQ(contacts[1].length, Duration::seconds(3));
}

TEST(OneFormat, DanglingUpClosesAtLastEvent) {
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "50 CONN a b up\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].departure(), at_s(50));
}

TEST(OneFormat, ZeroLengthContactsDropped) {
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "10 CONN s0 m1 down\n");
  EXPECT_TRUE(contacts.empty());
}

TEST(OneFormat, SkipsNonConnReports) {
  const auto contacts = parse(
      "10 M s0 m1 somethingelse\n"
      "12 CONN s0 m1 up\n"
      "14 CONN s0 m1 down\n");
  ASSERT_EQ(contacts.size(), 1U);
}

TEST(OneFormat, MalformedInputsThrowWithLineNumbers) {
  EXPECT_THROW((void)parse("abc CONN s0 m1 up\n"), std::runtime_error);
  EXPECT_THROW((void)parse("10 CONN s0 m1 sideways\n"), std::runtime_error);
  EXPECT_THROW((void)parse("10 CONN s0 m1 down\n"), std::runtime_error);
  EXPECT_THROW((void)parse("10 CONN s0\n"), std::runtime_error);
  // Non-monotonic timestamps.
  EXPECT_THROW((void)parse("10 CONN s0 m1 up\n5 CONN s0 m1 down\n"),
               std::runtime_error);
  try {
    (void)parse("10 CONN s0 m1 up\nbroken\n");
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

TEST(OneFormat, MissingFileThrows) {
  EXPECT_THROW((void)read_one_connectivity_file("/no/such/file.txt", "s0"),
               std::runtime_error);
}

// --- Edge paths that previously had no coverage. ---

TEST(OneFormat, DanglingUpClosesAtLastEventTimeNotItsOwn) {
  // The closing time is the file's last event time — here a down for an
  // unrelated pair long after the host's up.
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "20 CONN a b up\n"
      "90 CONN a b down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].arrival, at_s(10));
  EXPECT_EQ(contacts[0].departure(), at_s(90));
}

TEST(OneFormat, DanglingUpAsOnlyEventIsDropped) {
  // Closed at its own (last) event time -> zero length -> dropped.
  EXPECT_TRUE(parse("10 CONN s0 m1 up\n").empty());
}

TEST(OneFormat, HostColumnsMaySwapBetweenUpAndDown) {
  // Up names the host as host1, the matching down as host2.
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "15 CONN m1 s0 down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].length, Duration::seconds(5));
}

TEST(OneFormat, BackToBackContactsAtTheMergeBoundaryStaySeparate) {
  // m2 comes up at the exact instant m1 goes down: touching intervals do
  // not overlap under the strict merge rule and must stay two contacts.
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "14 CONN s0 m1 down\n"
      "14 CONN s0 m2 up\n"
      "20 CONN s0 m2 down\n");
  ASSERT_EQ(contacts.size(), 2U);
  EXPECT_EQ(contacts[0].departure(), at_s(14));
  EXPECT_EQ(contacts[1].arrival, at_s(14));
}

TEST(OneFormat, ReUpOfAnOpenContactKeepsTheEarlierStart) {
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "12 CONN s0 m1 up\n"
      "20 CONN s0 m1 down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].arrival, at_s(10));
  EXPECT_EQ(contacts[0].length, Duration::seconds(10));
}

TEST(OneFormat, LateClosingContactAbsorbsEverythingItOverlaps) {
  // m1 stays up over two later m2 contacts; the merge must absorb both
  // even though they closed (and could have been emitted) first.
  const auto contacts = parse(
      "10 CONN s0 m1 up\n"
      "20 CONN s0 m2 up\n"
      "25 CONN s0 m2 down\n"
      "30 CONN s0 m2 up\n"
      "35 CONN s0 m2 down\n"
      "50 CONN s0 m1 down\n");
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].arrival, at_s(10));
  EXPECT_EQ(contacts[0].departure(), at_s(50));
}

// Regressions found by the fuzz harness (tests/fuzz/).

TEST(OneFormat, SubMicrosecondContactIsDroppedNotEmittedAsZeroLength) {
  // down - up < half a simulator tick: rounding both ends to microseconds
  // makes the contact zero-length. It must be dropped like an exact
  // zero-length contact, never emitted with length 0.
  const auto contacts = parse(
      "100.0000001 CONN s0 m1 up\n"
      "100.0000002 CONN s0 m1 down\n");
  EXPECT_TRUE(contacts.empty());
}

TEST(OneFormat, TimestampsBeyondTheTickRangeAreRejected) {
  // 1e18 seconds would overflow the signed 64-bit microsecond clock and
  // llround would hand back garbage (LLONG_MIN) as the arrival.
  EXPECT_THROW((void)parse("1e18 CONN s0 m1 up\n"), std::runtime_error);
  // from_chars accepts "nan" and "inf"; NaN poisons the monotonicity
  // check (all comparisons false) and both overflow the conversion.
  EXPECT_THROW((void)parse("nan CONN s0 m1 up\n"), std::runtime_error);
  EXPECT_THROW((void)parse("inf CONN s0 m1 up\n"), std::runtime_error);
  try {
    (void)parse("10 CONN s0 m1 up\n9.9e13 CONN s0 m1 down\n");
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

// --- The streaming core. ---

TEST(OneFormat, StreamingEmitsTheSameContactsAsTheCollector) {
  const std::string report =
      "10 CONN s0 m1 up\n"
      "12 CONN s0 m2 up\n"
      "14 CONN s0 m1 down\n"
      "16 CONN s0 m2 down\n"
      "100 CONN s0 m3 up\n"
      "103 CONN s0 m3 down\n";
  std::vector<Contact> streamed;
  std::istringstream is{report};
  const OneStreamStats stats = stream_one_connectivity(
      is, "s0", [&](const Contact& c) { streamed.push_back(c); });
  EXPECT_EQ(streamed, parse(report));
  EXPECT_EQ(stats.contacts, 2U);
  EXPECT_EQ(stats.conn_events, 6U);
  EXPECT_EQ(stats.lines, 6U);
}

TEST(OneFormat, StreamingWindowStaysBoundedByConcurrency) {
  // 5000 disjoint contacts, never more than one peer in range: the peak
  // open+pending window must be O(1), not O(events) — the whole point of
  // the streaming rework.
  std::string report;
  for (int i = 0; i < 5000; ++i) {
    const int t = 10 * i;
    report += std::to_string(t) + " CONN s0 m" + std::to_string(i % 7) +
              " up\n";
    report += std::to_string(t + 4) + " CONN s0 m" + std::to_string(i % 7) +
              " down\n";
  }
  std::istringstream is{report};
  std::size_t emitted = 0;
  const OneStreamStats stats =
      stream_one_connectivity(is, "s0", [&](const Contact&) { ++emitted; });
  EXPECT_EQ(emitted, 5000U);
  EXPECT_EQ(stats.contacts, 5000U);
  EXPECT_LE(stats.peak_window, 2U);
}

TEST(OneFormat, WindowStaysBoundedUnderOneLongLivedContact) {
  // m1 stays up across thousands of short m2 churns. None of the closed
  // m2 contacts can flush (they all end after m1's up time), but they
  // are all destined to merge into m1's eventual contact, so the window
  // must collapse them provisionally instead of buffering O(events).
  std::string report = "5 CONN s0 m1 up\n";
  const int kChurns = 4000;
  for (int i = 0; i < kChurns; ++i) {
    const int t = 10 + 10 * i;
    report += std::to_string(t) + " CONN s0 m2 up\n";
    report += std::to_string(t + 4) + " CONN s0 m2 down\n";
  }
  report += std::to_string(10 + 10 * kChurns) + " CONN s0 m1 down\n";
  std::istringstream is{report};
  std::vector<Contact> contacts;
  const OneStreamStats stats = stream_one_connectivity(
      is, "s0", [&](const Contact& c) { contacts.push_back(c); });
  ASSERT_EQ(contacts.size(), 1U);
  EXPECT_EQ(contacts[0].arrival, at_s(5));
  EXPECT_EQ(contacts[0].departure(), at_s(10 + 10 * kChurns));
  EXPECT_LE(stats.peak_window, 3U);
}

TEST(OneFormat, RoundTripIntoPipeline) {
  // Imported contacts drive the normal trace pipeline.
  const auto contacts = parse(
      "100 CONN s0 m1 up\n"
      "102 CONN s0 m1 down\n"
      "400 CONN s0 m2 up\n"
      "403 CONN s0 m2 down\n");
  EXPECT_NO_THROW(contact::ContactSchedule{contacts});
  ASSERT_EQ(contacts.size(), 2U);
  EXPECT_EQ(contacts[0].length + contacts[1].length, Duration::seconds(5));
}

}  // namespace
}  // namespace snipr::trace
