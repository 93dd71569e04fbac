#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "snipr/deploy/collection_detail.hpp"
#include "snipr/sim/rng.hpp"

/// The collection pass's three kernels against plain references, over
/// random inputs: the run-merging event sort against std::sort, the
/// one-sweep latency quantiles against one independent sweep per q, and
/// the bitset relay lookup against a scan of every node.

namespace snipr::deploy::detail {
namespace {

// --- Event order -----------------------------------------------------------

bool same_event(const CollectionEvent& a, const CollectionEvent& b) {
  return a.t_s == b.t_s && a.node == b.node && a.vehicle == b.vehicle &&
         a.departure_s == b.departure_s;
}

void expect_sorted_like_std_sort(std::vector<CollectionEvent> events) {
  std::vector<CollectionEvent> reference = events;
  std::sort(reference.begin(), reference.end(), event_before);
  sort_events(events);
  ASSERT_EQ(events.size(), reference.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(events[i], reference[i])) << "event " << i;
  }
}

/// The engine's shape: each node's sessions in probe order, node after
/// node, then one sink pass per vehicle in vehicle order (nearly, not
/// exactly, ascending in time).
std::vector<CollectionEvent> engine_like_events(sim::Rng& rng) {
  const auto nodes = static_cast<std::uint32_t>(1 + rng.uniform_int(40));
  const auto vehicles = static_cast<std::uint32_t>(1 + rng.uniform_int(300));
  std::vector<CollectionEvent> events;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    double t = rng.uniform(0.0, 100.0);
    for (std::uint64_t s = rng.uniform_int(60); s > 0; --s) {
      t += rng.uniform(0.0, 500.0);
      const auto k = static_cast<std::uint32_t>(rng.uniform_int(vehicles));
      events.push_back(CollectionEvent{t, i, k, t + rng.uniform()});
    }
  }
  for (std::uint32_t k = 0; k < vehicles; ++k) {
    const double reach = 60.0 * k + rng.uniform(0.0, 900.0);
    events.push_back(CollectionEvent{reach, nodes, k, reach + 2.0});
  }
  return events;
}

/// Times from a handful of values, sessions and sink passes (node 3),
/// and exact duplicates: every tie-break key gets exercised.
std::vector<CollectionEvent> tied_events(sim::Rng& rng) {
  std::vector<CollectionEvent> events;
  for (std::uint64_t e = rng.uniform_int(400); e > 0; --e) {
    const double t = static_cast<double>(rng.uniform_int(6));
    const auto node = static_cast<std::uint32_t>(rng.uniform_int(4));
    const auto vehicle = static_cast<std::uint32_t>(rng.uniform_int(3));
    const double departure = t + static_cast<double>(rng.uniform_int(3));
    events.push_back(CollectionEvent{t, node, vehicle, departure});
    if (rng.bernoulli(0.1)) events.push_back(events.back());
  }
  return events;
}

TEST(CollectionEventSort, MatchesStdSortOnEngineShapedLists) {
  sim::Rng rng{11};
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    expect_sorted_like_std_sort(engine_like_events(rng));
  }
}

TEST(CollectionEventSort, MatchesStdSortOnShuffledLists) {
  sim::Rng rng{12};
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    std::vector<CollectionEvent> events = engine_like_events(rng);
    std::shuffle(events.begin(), events.end(), rng);
    expect_sorted_like_std_sort(events);
    std::reverse(events.begin(), events.end());
    expect_sorted_like_std_sort(events);
  }
}

TEST(CollectionEventSort, MatchesStdSortWithEqualTimesAndDuplicates) {
  sim::Rng rng{13};
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    expect_sorted_like_std_sort(tied_events(rng));
  }
}

TEST(CollectionEventSort, EmptyAndSingleLists) {
  expect_sorted_like_std_sort({});
  expect_sorted_like_std_sort({CollectionEvent{1.0, 2, 3, 4.0}});
}

// --- Latency quantiles -----------------------------------------------------

/// One sweep per q, from scratch: the pass's quantile taken alone.
double reference_quantile(const std::vector<LatencySegment>& segments,
                          double q) {
  double total = 0.0;
  for (const LatencySegment& s : segments) total += s.bytes;
  if (segments.empty() || total <= 0.0) return 0.0;
  const double target = q * total;
  struct Edge {
    double t;
    double density_delta;
    double jump;
  };
  std::vector<Edge> edges;
  for (const LatencySegment& s : segments) {
    if (s.hi_s - s.lo_s > 1e-12) {
      const double density = s.bytes / (s.hi_s - s.lo_s);
      edges.push_back(Edge{s.lo_s, density, 0.0});
      edges.push_back(Edge{s.hi_s, -density, 0.0});
    } else {
      edges.push_back(Edge{s.lo_s, 0.0, s.bytes});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  double mass = 0.0;
  double density = 0.0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].jump > 0.0) {
      mass += edges[i].jump;
      if (mass >= target) return edges[i].t;
    }
    density += edges[i].density_delta;
    if (i + 1 == edges.size()) break;
    const double gained = density * (edges[i + 1].t - edges[i].t);
    if (mass + gained >= target && density > 0.0) {
      return edges[i].t + (target - mass) / density;
    }
    mass += gained;
  }
  return edges.back().t;
}

std::vector<LatencySegment> random_segments(sim::Rng& rng) {
  std::vector<LatencySegment> segments;
  // Latencies past 16,384 s too, where a 1e-12 s slab rounds away.
  const double scale = rng.bernoulli(0.5) ? 100.0 : 1e5;
  for (std::uint64_t n = rng.uniform_int(80); n > 0; --n) {
    // Snapping to a coarse grid makes shared endpoints common.
    double lo = rng.uniform(0.0, scale);
    if (rng.bernoulli(0.3)) lo = static_cast<double>(rng.uniform_int(8)) * 10;
    double hi = lo + rng.uniform(0.0, scale / 10.0);
    if (rng.bernoulli(0.2)) hi = lo;           // a point mass
    if (rng.bernoulli(0.05)) hi = lo + 1e-13;  // a near-point mass
    const double bytes = rng.bernoulli(0.05) ? 0.0 : rng.uniform(1.0, 1000.0);
    segments.push_back(LatencySegment{lo, hi, bytes});
  }
  return segments;
}

TEST(MixtureQuantiles, OneSweepEqualsIndependentSweeps) {
  sim::Rng rng{21};
  for (int round = 0; round < 500; ++round) {
    SCOPED_TRACE(round);
    const std::vector<LatencySegment> segments = random_segments(rng);
    std::array<double, 5> qs{0.5, 0.9, 0.99, rng.uniform(), rng.uniform()};
    if (rng.bernoulli(0.2)) qs[3] = 0.0;
    if (rng.bernoulli(0.2)) qs[4] = 1.0;
    std::sort(qs.begin(), qs.end());
    std::array<double, 5> out{};
    mixture_quantiles(segments, qs, out);
    for (std::size_t j = 0; j < qs.size(); ++j) {
      EXPECT_EQ(out[j], reference_quantile(segments, qs[j])) << "q " << qs[j];
    }
  }
}

TEST(MixtureQuantiles, NoMassGivesZeros) {
  std::array<double, 3> out{1.0, 1.0, 1.0};
  const std::array<double, 3> qs{0.5, 0.9, 0.99};
  mixture_quantiles({}, qs, out);
  EXPECT_EQ(out, (std::array<double, 3>{}));
  out = {1.0, 1.0, 1.0};
  mixture_quantiles({LatencySegment{1.0, 2.0, 0.0}}, qs, out);
  EXPECT_EQ(out, (std::array<double, 3>{}));
}

// --- Relay hop lookup ------------------------------------------------------

std::uint8_t reference_min(const std::vector<double>& positions,
                           const std::vector<std::uint8_t>& hops, double x,
                           double exit) {
  std::uint8_t best = RelayHops::kUnknown;
  for (std::size_t j = 0; j < positions.size(); ++j) {
    if (positions[j] <= x) continue;
    if (positions[j] > exit) continue;
    best = std::min(best, hops[j]);
  }
  return best;
}

TEST(RelayHops, MatchesTheScanOverEveryNode) {
  sim::Rng rng{31};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {1U, 2U, 63U, 64U, 65U, 96U, 130U}) {
    for (int round = 0; round < 40; ++round) {
      SCOPED_TRACE(::testing::Message() << "n " << n << ", round " << round);
      // Unsorted positions with duplicates, as a caller may pass them.
      std::vector<double> positions(n);
      for (double& x : positions) {
        x = rng.bernoulli(0.3) ? static_cast<double>(rng.uniform_int(5)) * 100
                               : rng.uniform(0.0, 1000.0);
      }
      RelayHops relay{positions};
      std::vector<std::uint8_t> hops(n, RelayHops::kUnknown);
      const std::size_t sink = rng.uniform_int(n);
      hops[sink] = 0;
      relay.lower(sink, 0);
      for (int step = 0; step < 60; ++step) {
        const std::size_t i = rng.uniform_int(n);
        const auto h = static_cast<std::uint8_t>(1 + rng.uniform_int(2));
        hops[i] = std::min(hops[i], h);
        relay.lower(i, h);
        // Queries from a node's own position, from anywhere, to exits
        // before x (empty), at a node, past the road, or none at all.
        const double x = rng.bernoulli(0.5) ? positions[rng.uniform_int(n)]
                                            : rng.uniform(-10.0, 1010.0);
        const double anywhere = rng.uniform(-10.0, 1010.0);
        const double at_node = positions[rng.uniform_int(n)];
        ASSERT_EQ(relay.hops(i), hops[i]);
        for (const double exit :
             {anywhere, at_node, x - 1.0, kInf, -kInf, kNaN}) {
          ASSERT_EQ(relay.min_in(x, exit),
                    reference_min(positions, hops, x, exit))
              << "x " << x << ", exit " << exit;
        }
      }
    }
  }
}

}  // namespace
}  // namespace snipr::deploy::detail
