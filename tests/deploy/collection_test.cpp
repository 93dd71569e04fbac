#include "snipr/deploy/collection.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <stdexcept>
#include <vector>

#include "snipr/deploy/collection_detail.hpp"
#include "snipr/sim/time.hpp"

namespace snipr::deploy {
namespace {

VehicleEntry through_vehicle(double entry_s, double speed_mps = 10.0) {
  VehicleEntry v;
  v.entry = sim::TimePoint::zero() + sim::Duration::seconds(entry_s);
  v.speed_mps = speed_mps;
  return v;
}

CollectionInput one_node_input() {
  CollectionInput input;
  input.sensing_rate_bps = 10.0;
  input.data_rate_bps = 100.0;
  input.range_m = 10.0;
  input.positions_m = {100.0};
  input.vehicles = {through_vehicle(0.0)};
  input.horizon_s = 1000.0;
  return input;
}

TEST(Collection, ContactTooShortForOneByteMovesNothing) {
  // A probed session whose residual window times data rate is under one
  // byte (kMinTransferBytes) transfers nothing: no pickup event, the
  // sensed data stays in the node store as residual.
  CollectionInput input = one_node_input();
  CollectionSession session;
  session.node = 0;
  session.vehicle = 0;
  session.probe_time_s = 10.0;
  session.departure_s = 10.0 + 0.5 / input.data_rate_bps;  // half a byte
  input.sessions = {session};
  const NetworkOutcome out = run_collection(input);
  EXPECT_EQ(out.pickups, 0U);
  EXPECT_EQ(out.deliveries, 0U);
  EXPECT_DOUBLE_EQ(out.delivered_bytes, 0.0);
  EXPECT_GT(out.generated_bytes, 0.0);
  EXPECT_NEAR(out.residual_bytes, out.generated_bytes, 1e-9);
}

TEST(Collection, ThroughVehicleFerriesToTheVirtualSink) {
  // One node, one through vehicle, an ample contact: the vehicle picks
  // up the backlog and delivers it at the virtual sink one range past
  // the node. Direct node -> vehicle -> sink custody is two hops.
  CollectionInput input = one_node_input();
  CollectionSession session;
  session.node = 0;
  session.vehicle = 0;
  session.probe_time_s = 10.0;
  session.departure_s = 12.0;  // 200 bytes of link budget
  input.sessions = {session};
  const NetworkOutcome out = run_collection(input);
  EXPECT_DOUBLE_EQ(sink_position_m(input), 110.0);
  EXPECT_EQ(out.pickups, 1U);
  EXPECT_EQ(out.deliveries, 1U);
  EXPECT_GT(out.delivered_bytes, 0.0);
  EXPECT_DOUBLE_EQ(out.mean_hops, 2.0);
  // Conservation: generated = delivered + residual (nothing drops or
  // expires with unlimited stores and no TTL).
  EXPECT_NEAR(out.generated_bytes, out.delivered_bytes + out.residual_bytes,
              1e-9 * out.generated_bytes);
}

TEST(Collection, ZeroCapacityNodeStoresDropEverything) {
  // RoutingSpec's node_store_bytes uses 0 = unlimited; the degenerate
  // zero-capacity store is reachable by asking for a capacity below one
  // byte... so pin the *unlimited* spelling here and the true zero-byte
  // store in the StoreBuffer unit tests.
  CollectionInput input = one_node_input();
  input.routing.node_store_bytes = 1e-6;  // effectively zero capacity
  CollectionSession session;
  session.node = 0;
  session.vehicle = 0;
  session.probe_time_s = 10.0;
  session.departure_s = 12.0;
  input.sessions = {session};
  const NetworkOutcome out = run_collection(input);
  EXPECT_LT(out.delivered_bytes, 1.0);  // at most a sub-byte sliver moves
  EXPECT_GT(out.dropped_bytes, 0.999 * out.generated_bytes);
}

TEST(Collection, SinkNodeGeneratesNothingAndServesAsBase) {
  // With a designated sink node, that node is the base station: it
  // senses nothing, and data flows toward its position.
  CollectionInput input;
  input.sensing_rate_bps = 10.0;
  input.data_rate_bps = 1000.0;
  input.range_m = 10.0;
  input.positions_m = {100.0, 500.0};
  input.routing.sink_node = 1;
  input.vehicles = {through_vehicle(0.0)};
  CollectionSession session;
  session.node = 0;
  session.vehicle = 0;
  session.probe_time_s = 10.0;
  session.departure_s = 12.0;
  input.sessions = {session};
  input.horizon_s = 1000.0;
  const NetworkOutcome out = run_collection(input);
  EXPECT_DOUBLE_EQ(sink_position_m(input), 500.0);
  ASSERT_EQ(out.nodes.size(), 2U);
  EXPECT_DOUBLE_EQ(out.nodes[1].generated_bytes, 0.0);
  EXPECT_EQ(out.nodes[1].hops_to_sink, 0);
  EXPECT_GT(out.delivered_bytes, 0.0);
}

TEST(Collection, NonFinitePositionsAreRejected) {
  CollectionInput input = one_node_input();
  input.positions_m = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)run_collection(input), std::invalid_argument);
  input.positions_m = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)run_collection(input), std::invalid_argument);
}

TEST(LatencyQuantiles, PointMassBetweenTwoSlabsHoldsTheMedian) {
  // One byte each: a slab over [1e4, 1.5e4] s, an instantly generated
  // parcel delivered with 2e4 s latency, and a slab over [2.5e4, 3e4] s.
  // The median falls in the point mass. (Widened to a 1e-12 s slab, it
  // would round to zero width at 2e4 s and drop out of the sweep.)
  const std::vector<detail::LatencySegment> segments{
      {1e4, 1.5e4, 1.0}, {2e4, 2e4, 1.0}, {2.5e4, 3e4, 1.0}};
  const std::array<double, 3> qs{0.2, 0.5, 0.9};
  std::array<double, 3> out{};
  detail::mixture_quantiles(segments, qs, out);
  EXPECT_DOUBLE_EQ(out[0], 1.3e4);
  EXPECT_EQ(out[1], 2e4);
  EXPECT_DOUBLE_EQ(out[2], 2.85e4);
}

TEST(LatencyQuantiles, PointMassKeepsItsFullWeight) {
  // Slab [0, 1000] s with 1 byte, a 1-byte point mass at 1500 s, slab
  // [2000, 3000] s with 2 bytes. The 0.6 quantile (2.4 of 4 bytes) lies
  // 0.4 bytes into the last slab only if the point mass weighs exactly
  // 1 byte.
  const std::vector<detail::LatencySegment> segments{
      {0.0, 1000.0, 1.0}, {1500.0, 1500.0, 1.0}, {2000.0, 3000.0, 2.0}};
  const std::array<double, 2> qs{0.5, 0.6};
  std::array<double, 2> out{};
  detail::mixture_quantiles(segments, qs, out);
  EXPECT_EQ(out[0], 1500.0);
  EXPECT_NEAR(out[1], 2200.0, 1e-9);
}

}  // namespace
}  // namespace snipr::deploy
