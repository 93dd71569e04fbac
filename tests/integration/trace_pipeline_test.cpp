#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "snipr/core/experiment.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/trace/one_format.hpp"
#include "snipr/trace/slot_stats.hpp"
#include "snipr/trace/trace_io.hpp"

/// The full trace pipeline, end to end: synthesise contacts, export them
/// in both supported formats, re-import, estimate the environment, learn
/// a mask, and drive a SNIP-RH experiment from the replayed trace — the
/// workflow a user with a real-world mobility dataset follows.

namespace snipr {
namespace {

using contact::Contact;
using sim::Duration;

std::vector<Contact> synthesize_week(std::uint64_t seed) {
  const core::RoadsideScenario sc;
  sim::Rng rng{seed};
  return sc.make_schedule(7, contact::IntervalJitter::kNormalTenth, rng)
      .contacts();
}

TEST(TracePipeline, CsvRoundTripDrivesIdenticalExperiment) {
  const auto original = synthesize_week(5);
  std::ostringstream os;
  trace::write_csv(os, original);
  std::istringstream is{os.str()};
  const auto replayed = trace::read_csv(is);
  ASSERT_EQ(replayed.size(), original.size());

  const core::RoadsideScenario sc;
  core::ExperimentConfig cfg;
  cfg.epochs = 7;
  cfg.phi_max_s = sc.phi_max_small_s();
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(16.0);

  core::SnipRh rh_a{sc.rush_mask, core::SnipRhConfig{}};
  core::SnipRh rh_b{sc.rush_mask, core::SnipRhConfig{}};
  const auto a = core::run_experiment_on_schedule(
      sc, contact::ContactSchedule{original}, rh_a, cfg);
  const auto b = core::run_experiment_on_schedule(
      sc, contact::ContactSchedule{replayed}, rh_b, cfg);
  EXPECT_DOUBLE_EQ(a.mean_zeta_s, b.mean_zeta_s);
  EXPECT_DOUBLE_EQ(a.mean_phi_s, b.mean_phi_s);
}

TEST(TracePipeline, OneFormatImportDrivesExperiment) {
  // Render a week of contacts as a ONE connectivity report, import it
  // back for the sensor host, and run SNIP-RH on the result.
  const auto original = synthesize_week(9);
  std::ostringstream one;
  one << std::fixed << std::setprecision(6);
  one << "# synthetic ConnectivityONEReport\n";
  for (std::size_t i = 0; i < original.size(); ++i) {
    const Contact& c = original[i];
    one << c.arrival.to_seconds() << " CONN s0 m" << i << " up\n";
    one << c.departure().to_seconds() << " CONN s0 m" << i << " down\n";
  }
  std::istringstream is{one.str()};
  const auto imported = trace::read_one_connectivity(is, "s0");
  ASSERT_EQ(imported.size(), original.size());
  EXPECT_EQ(imported.front().arrival, original.front().arrival);

  const core::RoadsideScenario sc;
  core::ExperimentConfig cfg;
  cfg.epochs = 7;
  cfg.phi_max_s = sc.phi_max_large_s();
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(24.0);
  core::SnipRh rh{sc.rush_mask, core::SnipRhConfig{}};
  const auto r = core::run_experiment_on_schedule(
      sc, contact::ContactSchedule{imported}, rh, cfg);
  EXPECT_NEAR(r.mean_zeta_s, 24.0, 4.0);
}

TEST(TracePipeline, EstimatedProfileSupportsPlanning) {
  // From a replayed trace alone: estimate the profile, build the fluid
  // model, and size SNIP-AT — the offline planning loop.
  const auto contacts = synthesize_week(13);
  const trace::TraceSlotStats stats{contacts,
                                    contact::ArrivalProfile::roadside()};
  const contact::ArrivalProfile estimated = stats.estimate_profile();
  const model::EpochModel m{estimated, 2.0, model::SnipParams{}};
  // The estimated environment carries ~176 s/epoch of contact time.
  double epoch_s = 0.0;
  for (std::size_t s = 0; s < m.slot_count(); ++s) {
    epoch_s += m.slot_contact_time_s(s);
  }
  EXPECT_NEAR(epoch_s, 176.0, 20.0);
  const auto at = m.snip_at(16.0, 864.0);
  EXPECT_TRUE(at.met_target);
  EXPECT_NEAR(at.metrics.phi_s, 16.0 * 86400.0 / 8800.0, 30.0);
}

TEST(TracePipeline, LearnedMaskFromTraceMatchesGroundTruth) {
  const auto contacts = synthesize_week(17);
  const trace::TraceSlotStats stats{contacts,
                                    contact::ArrivalProfile::roadside()};
  const auto mask = core::RushHourMask::top_k(
      Duration::hours(24), 24, stats.slots_by_count(), 4);
  for (const std::size_t h : {7U, 8U, 17U, 18U}) {
    EXPECT_TRUE(mask.is_rush_slot(h)) << "hour " << h;
  }
}

}  // namespace
}  // namespace snipr
