#include "snipr/trace/trace_catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "snipr/contact/schedule.hpp"

namespace snipr::trace {
namespace {

TEST(TraceCatalog, HasUniqueNamedEntriesOfBothSources) {
  const TraceCatalog& catalog = TraceCatalog::instance();
  ASSERT_GE(catalog.size(), 4U);
  std::set<std::string> names;
  bool has_file = false;
  bool has_generator = false;
  for (const TraceEntry& entry : catalog.entries()) {
    EXPECT_TRUE(names.insert(entry.name).second)
        << "duplicate name " << entry.name;
    EXPECT_FALSE(entry.description.empty()) << entry.name;
    has_file |= entry.source == TraceSource::kFile;
    has_generator |= entry.source == TraceSource::kGenerator;
  }
  EXPECT_TRUE(has_file);
  EXPECT_TRUE(has_generator);
}

TEST(TraceCatalog, FindAndAtAgree) {
  const TraceCatalog& catalog = TraceCatalog::instance();
  const TraceEntry* found = catalog.find("synthetic-metro-drift");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(&catalog.at("synthetic-metro-drift"), found);
  EXPECT_EQ(catalog.find("no-such-trace"), nullptr);
}

TEST(TraceCatalog, AtListsValidNamesOnUnknown) {
  try {
    (void)TraceCatalog::instance().at("no-such-trace");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("campus-3day"), std::string::npos);
    EXPECT_NE(what.find("synthetic-roadside-2w"), std::string::npos);
  }
}

TEST(TraceCatalog, EveryEntryLoadsToAValidSchedule) {
  // File entries resolve against the data dir baked into the test binary
  // (the same tree the library default points at).
  const std::string dir = std::string{SNIPR_TEST_DATA_DIR} + "/one";
  for (const TraceEntry& entry : TraceCatalog::instance().entries()) {
    const std::vector<contact::Contact> contacts =
        TraceCatalog::load(entry, dir);
    ASSERT_FALSE(contacts.empty()) << entry.name;
    EXPECT_NO_THROW(contact::ContactSchedule{contacts}) << entry.name;
  }
}

TEST(TraceCatalog, LoadIsDeterministic) {
  const std::string dir = std::string{SNIPR_TEST_DATA_DIR} + "/one";
  const TraceCatalog& catalog = TraceCatalog::instance();
  EXPECT_EQ(TraceCatalog::load(catalog.at("campus-3day"), dir),
            TraceCatalog::load(catalog.at("campus-3day"), dir));
  EXPECT_EQ(TraceCatalog::load(catalog.at("synthetic-metro-drift")),
            TraceCatalog::load(catalog.at("synthetic-metro-drift")));
}

TEST(TraceCatalog, CheckedInCorpusSpansThreeDaysWithCommutePeaks) {
  const std::string dir = std::string{SNIPR_TEST_DATA_DIR} + "/one";
  const auto contacts =
      TraceCatalog::load(TraceCatalog::instance().at("campus-3day"), dir);
  ASSERT_GT(contacts.size(), 100U);
  const double last_s = contacts.back().arrival.to_seconds();
  EXPECT_GT(last_s, 2 * 86400.0);
  EXPECT_LT(last_s, 3 * 86400.0);
}

TEST(TraceCatalog, MissingFileThrows) {
  TraceEntry entry;
  entry.source = TraceSource::kFile;
  entry.file = "no_such_corpus.txt";
  entry.host = "s0";
  EXPECT_THROW((void)TraceCatalog::load(entry, "/no/such/dir"),
               std::runtime_error);
}

}  // namespace
}  // namespace snipr::trace
