#include "snipr/trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace snipr::trace {
namespace {

using contact::Contact;
using sim::Duration;
using sim::TimePoint;

std::vector<Contact> sample_trace() {
  return {
      {TimePoint::zero() + Duration::seconds(10.5), Duration::seconds(2)},
      {TimePoint::zero() + Duration::seconds(310), Duration::seconds(1.5)},
  };
}

TEST(TraceIo, WriteProducesHeaderAndRows) {
  std::ostringstream os;
  write_csv(os, sample_trace());
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("arrival_s,length_s\n", 0), 0U);
  // Fixed six decimals: exact microsecond resolution on round trip.
  EXPECT_NE(text.find("10.500000,2.000000"), std::string::npos);
  EXPECT_NE(text.find("310.000000,1.500000"), std::string::npos);
}

TEST(TraceIo, RoundTripPreservesContacts) {
  std::ostringstream os;
  write_csv(os, sample_trace());
  std::istringstream is{os.str()};
  const auto back = read_csv(is);
  ASSERT_EQ(back.size(), 2U);
  EXPECT_EQ(back[0], sample_trace()[0]);
  EXPECT_EQ(back[1], sample_trace()[1]);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::ostringstream os;
  write_csv(os, {});
  std::istringstream is{os.str()};
  EXPECT_TRUE(read_csv(is).empty());
}

TEST(TraceIo, MissingHeaderFails) {
  std::istringstream is{"10,2\n"};
  EXPECT_THROW((void)read_csv(is), std::runtime_error);
}

TEST(TraceIo, WrongHeaderFails) {
  std::istringstream is{"time,duration\n10,2\n"};
  EXPECT_THROW((void)read_csv(is), std::runtime_error);
}

TEST(TraceIo, MalformedNumberReportsLine) {
  std::istringstream is{"arrival_s,length_s\n10,2\nabc,2\n"};
  try {
    (void)read_csv(is);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
  }
}

TEST(TraceIo, MissingFieldFails) {
  std::istringstream is{"arrival_s,length_s\n10\n"};
  EXPECT_THROW((void)read_csv(is), std::runtime_error);
}

TEST(TraceIo, TrailingGarbageInFieldFails) {
  std::istringstream is{"arrival_s,length_s\n10x,2\n"};
  EXPECT_THROW((void)read_csv(is), std::runtime_error);
}

TEST(TraceIo, NegativeArrivalFails) {
  std::istringstream is{"arrival_s,length_s\n-1,2\n"};
  EXPECT_THROW((void)read_csv(is), std::runtime_error);
}

TEST(TraceIo, NonPositiveLengthFails) {
  std::istringstream is{"arrival_s,length_s\n1,0\n"};
  EXPECT_THROW((void)read_csv(is), std::runtime_error);
}

TEST(TraceIo, UnsortedArrivalsFail) {
  std::istringstream is{"arrival_s,length_s\n100,2\n50,2\n"};
  EXPECT_THROW((void)read_csv(is), std::runtime_error);
}

TEST(TraceIo, BlankLinesAreSkipped) {
  std::istringstream is{"arrival_s,length_s\n10,2\n\n20,2\n"};
  EXPECT_EQ(read_csv(is).size(), 2U);
}

}  // namespace
}  // namespace snipr::trace
