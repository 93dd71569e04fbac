#include "snipr/deploy/collection.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "snipr/deploy/collection_detail.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/data_buffer.hpp"

namespace snipr::deploy {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Minimum transfer unit: a session whose bandwidth budget cannot move
/// one whole byte moves nothing (the "contact too short" edge — the
/// fluid model would otherwise happily ship 10^-7 bytes).
constexpr double kMinTransferBytes = 1.0;

using detail::CollectionEvent;
using detail::LatencySegment;

struct VehicleState {
  std::vector<node::Parcel> cargo;
  double cargo_bytes{0.0};
};

double cargo_sum(const std::vector<node::Parcel>& cargo) {
  double sum = 0.0;
  for (const node::Parcel& p : cargo) sum += p.bytes;
  return sum;
}

double expire_cargo(std::vector<node::Parcel>& cargo, double t_s) {
  double expired = 0.0;
  std::erase_if(cargo, [&](const node::Parcel& p) {
    if (p.deadline_s < t_s) {
      expired += p.bytes;
      return true;
    }
    return false;
  });
  return expired;
}

}  // namespace

namespace detail {

void sort_events(std::vector<CollectionEvent>& events) {
  // Run r is [bounds[r], bounds[r + 1]): a maximal ascending stretch.
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (event_before(events[i], events[i - 1])) bounds.push_back(i);
  }
  bounds.push_back(events.size());
  std::size_t runs = bounds.size() - 1;
  if (runs <= 1) return;
  const auto at = [](std::vector<CollectionEvent>& v, std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::vector<CollectionEvent> merged(events.size());
  while (runs > 1) {
    // Merge runs 2m and 2m + 1 into run m; an odd last run is copied.
    std::size_t kept = 0;
    for (std::size_t r = 0; r < runs; r += 2) {
      const std::size_t mid = bounds[r + 1];
      const std::size_t end = r + 2 <= runs ? bounds[r + 2] : mid;
      std::merge(at(events, bounds[r]), at(events, mid), at(events, mid),
                 at(events, end), at(merged, bounds[r]), event_before);
      bounds[++kept] = end;
    }
    runs = kept;
    events.swap(merged);
  }
}

void mixture_quantiles(const std::vector<LatencySegment>& segments,
                       std::span<const double> qs, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  double total = 0.0;
  for (const LatencySegment& s : segments) total += s.bytes;
  if (segments.empty() || total <= 0.0) return;

  struct Edge {
    double t;
    double density_delta;  // bytes per second of latency
    double jump;           // bytes of a point mass at t
  };
  std::vector<Edge> edges;
  edges.reserve(2 * segments.size());
  for (const LatencySegment& s : segments) {
    if (s.hi_s - s.lo_s > 1e-12) {
      const double density = s.bytes / (s.hi_s - s.lo_s);
      edges.push_back(Edge{s.lo_s, density, 0.0});
      edges.push_back(Edge{s.hi_s, -density, 0.0});
    } else {
      // Near-instant generation: a point mass, carried as a jump. (A
      // slab 1e-12 s wide would round to another width from about 1e3 s
      // of latency, and to none at all from 16,384 s.)
      edges.push_back(Edge{s.lo_s, 0.0, s.bytes});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t < b.t;
  });

  // Targets ascend with q, so one sweep resolves them in order.
  std::size_t j = 0;
  const auto target = [&](std::size_t k) { return qs[k] * total; };
  double mass = 0.0;
  double density = 0.0;
  for (std::size_t i = 0; i < edges.size() && j < qs.size(); ++i) {
    const Edge& e = edges[i];
    if (e.jump > 0.0) {
      mass += e.jump;
      for (; j < qs.size() && mass >= target(j); ++j) out[j] = e.t;
    }
    density += e.density_delta;
    if (i + 1 == edges.size()) break;
    const double gained = density * (edges[i + 1].t - e.t);
    while (j < qs.size() && density > 0.0 && mass + gained >= target(j)) {
      out[j] = e.t + (target(j) - mass) / density;
      ++j;
    }
    mass += gained;
  }
  // q == 1 (or rounding): the latest latency.
  for (; j < qs.size(); ++j) out[j] = edges.back().t;
}

RelayHops::RelayHops(const std::vector<double>& positions_m)
    : hops_(positions_m.size(), kUnknown), rank_(positions_m.size()) {
  std::vector<std::uint32_t> order(positions_m.size());
  std::iota(order.begin(), order.end(), 0U);
  const auto by_position = [&](std::uint32_t a, std::uint32_t b) {
    return positions_m[a] < positions_m[b];
  };
  std::sort(order.begin(), order.end(), by_position);
  sorted_m_.reserve(order.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    sorted_m_.push_back(positions_m[order[r]]);
    rank_[order[r]] = static_cast<std::uint32_t>(r);
  }
  for (std::vector<std::uint64_t>& level : known_) {
    level.assign((order.size() + 63) / 64, 0);
  }
}

void RelayHops::lower(std::size_t node, std::uint8_t hops) {
  if (hops >= hops_[node]) return;
  hops_[node] = hops;
  const std::uint32_t r = rank_[node];
  for (std::size_t h = hops; h < known_.size(); ++h) {
    known_[h][r / 64] |= std::uint64_t{1} << (r % 64);
  }
}

std::uint8_t RelayHops::min_in(double x_m, double exit_m) const {
  const auto rank_above = [this](double x) {
    return static_cast<std::size_t>(
        std::upper_bound(sorted_m_.begin(), sorted_m_.end(), x) -
        sorted_m_.begin());
  };
  const std::size_t lo = rank_above(x_m);
  const std::size_t hi = rank_above(exit_m);  // NaN: every rank above x
  if (lo >= hi) return kUnknown;
  const std::size_t first = lo / 64;
  const std::size_t last = (hi - 1) / 64;
  const std::uint64_t head = ~std::uint64_t{0} << (lo % 64);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
  for (std::size_t h = 0; h < known_.size(); ++h) {
    const std::vector<std::uint64_t>& bits = known_[h];
    bool any = false;
    if (first == last) {
      any = (bits[first] & head & tail) != 0;
    } else {
      any = (bits[first] & head) != 0 || (bits[last] & tail) != 0;
      for (std::size_t w = first + 1; !any && w < last; ++w) {
        any = bits[w] != 0;
      }
    }
    if (any) return static_cast<std::uint8_t>(h);
  }
  return kUnknown;
}

}  // namespace detail

double sink_position_m(const CollectionInput& input) {
  if (input.routing.sink_node.has_value()) {
    const std::size_t sink = *input.routing.sink_node;
    if (sink >= input.positions_m.size()) {
      throw std::invalid_argument(
          "run_collection: sink_node outside the fleet");
    }
    return input.positions_m[sink];
  }
  double road_end = 0.0;
  for (const double x : input.positions_m) road_end = std::max(road_end, x);
  return road_end + input.range_m;
}

NetworkOutcome run_collection(const CollectionInput& input) {
  if (input.positions_m.empty()) {
    throw std::invalid_argument("run_collection: no nodes");
  }
  if (!(input.data_rate_bps > 0.0)) {
    throw std::invalid_argument("run_collection: data rate must be > 0");
  }
  for (const double x : input.positions_m) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument("run_collection: positions must be finite");
    }
  }
  const RoutingSpec& routing = input.routing;
  const double sink_pos = sink_position_m(input);
  const std::size_t n = input.positions_m.size();
  const bool has_ttl = routing.forwarding == ForwardingPolicy::kTimeCost &&
                       routing.parcel_ttl_s > 0.0;

  const double node_cap =
      routing.node_store_bytes > 0.0 ? routing.node_store_bytes : kInf;
  const double vehicle_cap =
      routing.vehicle_store_bytes > 0.0 ? routing.vehicle_store_bytes : kInf;
  const node::StoreDropPolicy drop_policy =
      routing.drop_policy == DropPolicy::kOldestFirst
          ? node::StoreDropPolicy::kOldestFirst
          : node::StoreDropPolicy::kTailDrop;

  std::vector<node::StoreBuffer> stores;
  stores.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stores.emplace_back(node_cap, drop_policy);
  }
  std::vector<double> last_accrue_s(n, 0.0);
  std::vector<double> generated(n, 0.0);
  std::vector<VehicleState> vehicle_states(input.vehicles.size());

  NetworkOutcome out;
  out.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.nodes[i].node_index = i;

  // The co-located sink node (if any) hosts the base station: it senses
  // no data of its own and its sessions carry no transfers (delivery is
  // the always-on sink-pass events below, not the duty-cycled probe).
  const std::size_t sink_node =
      routing.sink_node.has_value() ? *routing.sink_node : n;
  // Learned hops to the sink; 255 until a vehicle beacons a route.
  detail::RelayHops hops_to_sink{input.positions_m};
  if (sink_node < n) hops_to_sink.lower(sink_node, 0);

  auto vehicle_reaches_sink = [&](std::uint32_t k) {
    return input.vehicles[k].exit_m >= sink_pos;
  };

  // --- Build the deterministic event list: probed sessions plus one
  // sink pass per sink-reaching vehicle.
  std::vector<CollectionEvent> events;
  events.reserve(input.sessions.size() + input.vehicles.size());
  for (const CollectionSession& s : input.sessions) {
    if (s.node >= n || s.vehicle >= input.vehicles.size()) {
      throw std::invalid_argument("run_collection: session out of range");
    }
    events.push_back(
        CollectionEvent{s.probe_time_s, s.node, s.vehicle, s.departure_s});
  }
  for (std::uint32_t k = 0; k < input.vehicles.size(); ++k) {
    if (!vehicle_reaches_sink(k)) continue;
    const VehicleEntry& v = input.vehicles[k];
    const double reach_s = v.entry.to_seconds() + sink_pos / v.speed_mps;
    if (reach_s >= input.horizon_s) continue;
    const double window_s = 2.0 * input.range_m / v.speed_mps;
    events.push_back(CollectionEvent{reach_s, static_cast<std::uint32_t>(n),
                                     k, reach_s + window_s});
  }
  detail::sort_events(events);

  // kTimeCost scores both custodians by *estimated time for the data to
  // reach the sink from now*, at the current carrier's speed (the one
  // speed sample the session actually observed):
  //   node i:     hops_i x H  (waiting through the relay chain)
  //               + ferry time from x_i to the sink;
  //   through k:  ferry time from here to the sink — always cheaper
  //               than its node by hops x H, so through carriers always
  //               collect;
  //   partial k:  ferry to the best known relay j before its exit, one
  //               handoff (risk penalty), then j's chain. The ferry legs
  //               telescope to sink travel from here, leaving
  //               travel + risk + min_{j in (x, exit]} hops_j x H
  //               (255 x H when no beacon has reached that stretch —
  //               the metric degrades to greedy until the hop field
  //               seeds, a conservative cold start).
  auto node_cost_s = [&](std::uint32_t i, double speed_mps) {
    return static_cast<double>(hops_to_sink.hops(i)) *
               routing.est_hop_delay_s +
           std::max(0.0, sink_pos - input.positions_m[i]) / speed_mps;
  };
  auto vehicle_cost_s = [&](std::uint32_t k, double x_now) {
    const VehicleEntry& v = input.vehicles[k];
    const double ferry = std::max(0.0, sink_pos - x_now) / v.speed_mps;
    if (vehicle_reaches_sink(k)) return ferry;
    return ferry +
           static_cast<double>(hops_to_sink.min_in(x_now, v.exit_m)) *
               routing.est_hop_delay_s +
           routing.handoff_risk_s;
  };

  std::vector<LatencySegment> latency;
  std::vector<node::Parcel> scratch;

  for (const CollectionEvent& ev : events) {
    if (ev.node == n) {
      // --- Sink pass: the always-on base station drains the carrier,
      // bounded by link rate over the pass window.
      VehicleState& vs = vehicle_states[ev.vehicle];
      if (has_ttl) out.expired_bytes += expire_cargo(vs.cargo, ev.t_s);
      double budget = input.data_rate_bps * (ev.departure_s - ev.t_s);
      if (budget < kMinTransferBytes || vs.cargo.empty()) continue;
      std::size_t delivered_whole = 0;
      bool any = false;
      for (node::Parcel& p : vs.cargo) {
        if (budget < kMinTransferBytes) break;
        const double grant = std::min(p.bytes, budget);
        const double fraction = grant / p.bytes;
        const double gen_hi =
            p.gen_start_s + (p.gen_end_s - p.gen_start_s) * fraction;
        latency.push_back(
            LatencySegment{ev.t_s - gen_hi, ev.t_s - p.gen_start_s, grant});
        const std::size_t hops = static_cast<std::size_t>(p.hops) + 1;
        out.mean_hops += grant * static_cast<double>(hops);  // sum for now
        out.max_hops = std::max(out.max_hops, hops);
        out.delivered_bytes += grant;
        out.nodes[p.origin].origin_delivered_bytes += grant;
        budget -= grant;
        any = true;
        if (grant >= p.bytes) {
          ++delivered_whole;
        } else {
          p.gen_start_s = gen_hi;
          p.bytes -= grant;
          break;
        }
      }
      vs.cargo.erase(vs.cargo.begin(),
                     vs.cargo.begin() +
                         static_cast<std::ptrdiff_t>(delivered_whole));
      vs.cargo_bytes = cargo_sum(vs.cargo);
      if (any) ++out.deliveries;
      continue;
    }

    // --- Probed session at a node.
    const std::uint32_t i = ev.node;
    const std::uint32_t k = ev.vehicle;
    node::StoreBuffer& store = stores[i];
    VehicleState& vs = vehicle_states[k];

    // 1. Sensed fluid accrues up to the probe instant.
    if (i != sink_node) {
      const double t0 = last_accrue_s[i];
      const double t1 = std::min(ev.t_s, input.horizon_s);
      if (t1 > t0) {
        generated[i] += input.sensing_rate_bps * (t1 - t0);
        store.accrue(t0, t1, input.sensing_rate_bps, i,
                     has_ttl ? routing.parcel_ttl_s : kInf);
        last_accrue_s[i] = t1;
      }
    }
    if (has_ttl) {
      out.expired_bytes += store.expire(ev.t_s);
      const double expired = expire_cargo(vs.cargo, ev.t_s);
      if (expired > 0.0) {
        out.expired_bytes += expired;
        vs.cargo_bytes = cargo_sum(vs.cargo);
      }
    }

    // 2. Hop beacon: the carrier announces its own cost in carriers
    // (1 = ferries to the sink itself, 2 = needs one relay handoff),
    // and the node min-learns it. The sink node stays 0.
    hops_to_sink.lower(i, vehicle_reaches_sink(k) ? 1 : 2);

    // 3. Bandwidth budget for the residual contact.
    double budget = input.data_rate_bps * (ev.departure_s - ev.t_s);
    if (budget < kMinTransferBytes) continue;

    const double x = input.positions_m[i];
    const bool node_upstream = x < sink_pos;

    // 4. Deposit (vehicle → node), then pickup (node → vehicle), the
    // two sharing the session budget. The sink node accepts neither —
    // its base station drains carriers in the sink-pass events.
    if (i != sink_node && !vs.cargo.empty() &&
        routing.forwarding == ForwardingPolicy::kTimeCost &&
        node_cost_s(i, input.vehicles[k].speed_mps) <
            vehicle_cost_s(k, x)) {
      // Injected hand-off loss: failed attempts and retry backoff burn
      // the session budget; abandonment grants 0 and the cargo stays
      // aboard the carrier (byte conservation holds either way).
      double allow = budget;
      if (input.faults != nullptr) {
        allow = input.faults->attempt_handoff(
            std::min(vs.cargo_bytes, budget), budget);
      }
      if (allow >= kMinTransferBytes) {
        const double before = vs.cargo_bytes;
        const double accepted = store.deposit(ev.t_s, vs.cargo, allow);
        if (accepted > 0.0) {
          ++out.deposits;
          out.deposit_bytes += accepted;
          out.nodes[i].deposit_bytes += accepted;
          vs.cargo_bytes = before - accepted;
          budget -= accepted;
        }
      }
    }

    if (i != sink_node && node_upstream && budget >= kMinTransferBytes) {
      bool want = false;
      if (routing.forwarding == ForwardingPolicy::kGreedySink) {
        want = vehicle_reaches_sink(k);
      } else {
        want = vehicle_cost_s(k, x) <
               node_cost_s(i, input.vehicles[k].speed_mps);
      }
      const double free = vehicle_cap - vs.cargo_bytes;
      if (want && free >= kMinTransferBytes) {
        // Same injected-loss discipline for the pickup direction; the
        // data stays in the node store when the hand-off is abandoned.
        double allow = std::min(budget, free);
        if (input.faults != nullptr) {
          allow = std::min(input.faults->attempt_handoff(allow, budget), free);
        }
        scratch.clear();
        const double taken = store.take(ev.t_s, allow, scratch);
        if (taken > 0.0) {
          for (node::Parcel& p : scratch) {
            ++p.hops;
            vs.cargo.push_back(p);
          }
          vs.cargo_bytes += taken;
          ++out.pickups;
          out.pickup_bytes += taken;
          out.nodes[i].pickup_bytes += taken;
        }
      }
    }
  }

  // --- Horizon close-out: final accrual, occupancy statistics, and the
  // byte-conservation classification of whatever never arrived.
  for (std::size_t i = 0; i < n; ++i) {
    if (i != sink_node && input.horizon_s > last_accrue_s[i]) {
      generated[i] +=
          input.sensing_rate_bps * (input.horizon_s - last_accrue_s[i]);
      stores[i].accrue(last_accrue_s[i], input.horizon_s,
                       input.sensing_rate_bps, static_cast<std::uint32_t>(i),
                       has_ttl ? routing.parcel_ttl_s : kInf);
    }
    stores[i].advance(input.horizon_s);
    out.residual_bytes += stores[i].level();
    out.generated_bytes += generated[i];
    out.dropped_bytes += stores[i].dropped_bytes();

    NodeNetworkOutcome& row = out.nodes[i];
    row.generated_bytes = generated[i];
    row.dropped_bytes = stores[i].dropped_bytes();
    row.max_store_bytes = stores[i].max_level();
    row.mean_store_bytes = stores[i].mean_level(input.horizon_s);
    row.hops_to_sink = hops_to_sink.hops(i);
  }
  for (std::uint32_t k = 0; k < vehicle_states.size(); ++k) {
    const double aboard = cargo_sum(vehicle_states[k].cargo);
    if (aboard <= 0.0) continue;
    if (vehicle_reaches_sink(k)) {
      out.residual_bytes += aboard;  // en route (or past an overrun pass)
    } else {
      out.lost_in_transit_bytes += aboard;  // exited the road carrying it
    }
  }

  out.delivery_ratio =
      out.generated_bytes > 0.0 ? out.delivered_bytes / out.generated_bytes
                                : 0.0;
  if (out.delivered_bytes > 0.0) {
    out.mean_hops /= out.delivered_bytes;
    double latency_mass = 0.0;
    for (const LatencySegment& s : latency) {
      latency_mass += s.bytes * (s.lo_s + s.hi_s) / 2.0;
    }
    out.latency_mean_s = latency_mass / out.delivered_bytes;
    constexpr std::array<double, 3> kQs{0.50, 0.90, 0.99};
    std::array<double, 3> quantiles{};
    detail::mixture_quantiles(latency, kQs, quantiles);
    out.latency_p50_s = quantiles[0];
    out.latency_p90_s = quantiles[1];
    out.latency_p99_s = quantiles[2];
  } else {
    out.mean_hops = 0.0;
  }
  return out;
}

const char* to_string(DropPolicy policy) noexcept {
  switch (policy) {
    case DropPolicy::kTailDrop:
      return "tail_drop";
    case DropPolicy::kOldestFirst:
      return "oldest_first";
  }
  return "unknown";
}

const char* to_string(ForwardingPolicy policy) noexcept {
  switch (policy) {
    case ForwardingPolicy::kGreedySink:
      return "greedy_sink";
    case ForwardingPolicy::kTimeCost:
      return "time_cost";
  }
  return "unknown";
}

}  // namespace snipr::deploy
