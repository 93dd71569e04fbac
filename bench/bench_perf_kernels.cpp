/// Performance microbenchmarks (google-benchmark) for the computational
/// kernels behind the figure harnesses: a full simulated day, the
/// water-filling solver, the closed-form model and trace parsing, and the
/// planning layer (one SNIP-AT/SNIP-OPT plan, the solve a fleet runs
/// once). These guard against regressions that would make the two-week
/// sweeps (Figs. 7-8) impractical. Per-layer rows for the probing hot
/// path: a lone node's runs of missed probes with and without their
/// fast-forward (the per-wakeup rows fire every wakeup through the
/// node's own loop), on the road-side schedule and on a dense schedule
/// of contacts the probe grid steps over, the rush-mask slot scan and
/// one adaptive SNIP-RH wakeup in the exploit phase. Per-layer rows for
/// the relay fleet's serial tail: one store-and-forward collection pass
/// and the JSON writer's numbers. Per-layer rows for the fleet engines:
/// a road's node-by-node contact builds, one builder per road or per
/// shard range, and `ThreadPool::ordered_for` with the streaming fleet's
/// slow checkpoint commits.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/core/rush_hour_mask.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/core/thread_pool.hpp"
#include "snipr/deploy/collection.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/model/optimizer.hpp"
#include "snipr/trace/one_format.hpp"
#include "snipr/trace/synthetic.hpp"
#include "snipr/trace/trace_io.hpp"
#include "support/pass_through_scheduler.hpp"
#include "support/road_inputs.hpp"

namespace {

using namespace snipr;

void BM_SimulatedDaySnipRh(benchmark::State& state) {
  const core::RoadsideScenario sc;
  for (auto _ : state) {
    core::SnipRh rh{sc.rush_mask, core::SnipRhConfig{}};
    core::ExperimentConfig cfg;
    cfg.epochs = 1;
    cfg.phi_max_s = sc.phi_max_large_s();
    cfg.sensing_rate_bps = sc.sensing_rate_for_target(48.0);
    cfg.seed = 1;
    const auto r = core::run_experiment(sc, rh, cfg);
    benchmark::DoNotOptimize(r.mean_zeta_s);
  }
}
BENCHMARK(BM_SimulatedDaySnipRh);

void BM_LoneNodeMissRun(benchmark::State& state) {
  // A lone SNIP-OPT node over 14 days of the paper's road-side schedule,
  // where nearly every probe misses. Arg 0 runs its scheduler plain, so
  // runs of missed probes are fast-forwarded; arg 1 wraps it in the
  // pass-through decorator, which withholds the fast-forward hook, so
  // every wakeup is simulated. `per_wakeup` is wall time per probing
  // wakeup, skipped ones included; the two rows of one process give the
  // ratio the fast-forward buys on the same host.
  const core::RoadsideScenario sc;
  core::ExperimentConfig cfg;
  cfg.epochs = 14;
  cfg.phi_max_s = sc.phi_max_large_s();
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(48.0);
  cfg.seed = 1;
  sim::Rng rng{cfg.seed};
  const auto schedule = std::make_shared<const contact::ContactSchedule>(
      sc.make_schedule(cfg.epochs, cfg.jitter, rng));
  const bool reference = state.range(0) != 0;
  double wakeups = 0.0;
  for (auto _ : state) {
    std::unique_ptr<node::Scheduler> scheduler = core::make_scheduler(
        sc, core::Strategy::kSnipOpt, 48.0, cfg.phi_max_s);
    if (reference) {
      scheduler =
          std::make_unique<testing::PassThroughScheduler>(std::move(scheduler));
    }
    const core::RunResult r =
        core::run_experiment_on_schedule(sc, schedule, *scheduler, cfg);
    benchmark::DoNotOptimize(r.mean_zeta_s);
    wakeups += r.mean_wakeups * static_cast<double>(r.epochs);
  }
  // The inverted rate is seconds per wakeup, printed with an SI prefix.
  state.counters["per_wakeup"] = benchmark::Counter(
      wakeups, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LoneNodeMissRun)->Arg(0)->Arg(1);

void BM_LoneNodeAdaptive(benchmark::State& state) {
  // Adaptive SNIP-RH alone on 14 days of the road-side schedule at the
  // paper's small budget, Φmax 43.2 s. Past its learning days it spends
  // the budget and then polls at 1 Hz to each epoch's end, and its
  // background tracker probes outside the mask. Arg 0 runs it plain, so
  // those polls and lone tracker probes are fast-forwarded with its
  // missed probes; arg 1 wraps it in the pass-through decorator, which
  // withholds the hook, so every wakeup is simulated. The time per
  // iteration is one 14-day run; the two rows of one process give the
  // ratio on the same host.
  const core::RoadsideScenario sc;
  core::ExperimentConfig cfg;
  cfg.epochs = 14;
  cfg.phi_max_s = 43.2;
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(48.0);
  cfg.seed = 1;
  sim::Rng rng{cfg.seed};
  const auto schedule = std::make_shared<const contact::ContactSchedule>(
      sc.make_schedule(cfg.epochs, cfg.jitter, rng));
  const bool reference = state.range(0) != 0;
  for (auto _ : state) {
    std::unique_ptr<node::Scheduler> scheduler = core::make_scheduler(
        sc, core::Strategy::kAdaptive, 48.0, cfg.phi_max_s);
    if (reference) {
      scheduler =
          std::make_unique<testing::PassThroughScheduler>(std::move(scheduler));
    }
    const core::RunResult r =
        core::run_experiment_on_schedule(sc, schedule, *scheduler, cfg);
    benchmark::DoNotOptimize(r.mean_zeta_s);
  }
}
BENCHMARK(BM_LoneNodeAdaptive)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_LoneNodeSteppedOver(benchmark::State& state) {
  // A lone SNIP-AT node probing every 20 s over 14 days of 0.2 s contacts
  // arriving every 10 s, ±2 s: most contacts fall between two probes, so
  // a run of missed probes steps over about two contacts per probe. Arg 0
  // runs the scheduler plain, so those runs are fast-forwarded; arg 1
  // wraps it in the pass-through decorator, which withholds the hook, so
  // every wakeup is simulated. `per_wakeup` is wall time per probing
  // wakeup, skipped ones included; the two rows of one process give the
  // ratio on the same host.
  const core::RoadsideScenario sc;
  core::ExperimentConfig cfg;
  cfg.epochs = 14;
  cfg.phi_max_s = 1e6;
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(16.0);
  cfg.seed = 1;
  sim::Rng rng{cfg.seed};
  std::vector<contact::Contact> contacts;
  const sim::TimePoint end =
      sim::TimePoint::zero() +
      sc.profile.epoch() * static_cast<std::int64_t>(cfg.epochs);
  for (sim::TimePoint t = sim::TimePoint::zero() + sim::Duration::seconds(8);
       t < end; t += sim::Duration::seconds(rng.uniform(8.0, 12.0))) {
    contacts.push_back({t, sim::Duration::milliseconds(200)});
  }
  const auto schedule =
      std::make_shared<const contact::ContactSchedule>(std::move(contacts));
  const sim::Duration ton = sim::Duration::seconds(sc.snip.ton_s);
  const bool reference = state.range(0) != 0;
  double wakeups = 0.0;
  for (auto _ : state) {
    std::unique_ptr<node::Scheduler> scheduler =
        std::make_unique<core::SnipAt>(0.001, ton);
    if (reference) {
      scheduler =
          std::make_unique<testing::PassThroughScheduler>(std::move(scheduler));
    }
    const core::RunResult r =
        core::run_experiment_on_schedule(sc, schedule, *scheduler, cfg);
    benchmark::DoNotOptimize(r.mean_zeta_s);
    wakeups += r.mean_wakeups * static_cast<double>(r.epochs);
  }
  state.counters["per_wakeup"] = benchmark::Counter(
      wakeups, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LoneNodeSteppedOver)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_RushMaskNextRushStart(benchmark::State& state) {
  // Ten-minute slots with rush blocks at the paper's 7-9 h and 17-19 h
  // positions, scaled to the slot count; queries walk the epoch at a
  // stride that is never slot-aligned, so most land outside the mask and
  // scan forward.
  const auto slots = static_cast<std::size_t>(state.range(0));
  core::RushHourMask mask{
      sim::Duration::minutes(10) * static_cast<std::int64_t>(slots), slots};
  for (const std::size_t hour : {7U, 8U, 17U, 18U}) {
    mask.set(hour * slots / 24, true);
  }
  const sim::Duration stride = sim::Duration::seconds(4111);
  sim::TimePoint t = sim::TimePoint::zero();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mask.next_rush_start(t));
    t += stride;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RushMaskNextRushStart)->Arg(24)->Arg(48)->Arg(130);

void BM_AdaptiveOnWakeup(benchmark::State& state) {
  // Adaptive SNIP-RH with UCB exploration, driven through its learning
  // epochs (rush-hour detections feed the learner) so every timed call
  // is an exploit-phase wakeup: tracker, exploration plan and rush mask.
  core::AdaptiveSnipRhConfig config;
  config.exploration.kind = core::ExplorationPolicyKind::kUcb;
  core::AdaptiveSnipRh adaptive{sim::Duration::hours(24), 24, config};
  node::SensorContext ctx;
  ctx.buffer_bytes = 1e9;
  ctx.budget_limit = sim::Duration::hours(24);
  for (std::size_t epoch = 0; epoch < config.learning_epochs; ++epoch) {
    const sim::TimePoint day =
        sim::TimePoint::zero() +
        sim::Duration::hours(24) * static_cast<std::int64_t>(epoch);
    for (std::int64_t minute = 0; minute < 24 * 60; minute += 7) {
      ctx.now = day + sim::Duration::minutes(minute);
      benchmark::DoNotOptimize(adaptive.on_wakeup(ctx));
      const std::int64_t hour = minute / 60;
      if (hour == 7 || hour == 8 || hour == 17 || hour == 18) {
        adaptive.on_probe_detected(ctx.now);
      }
    }
    adaptive.on_epoch_start(static_cast<std::int64_t>(epoch) + 1);
  }
  ctx.now = sim::TimePoint::zero() +
            sim::Duration::hours(24) *
                static_cast<std::int64_t>(config.learning_epochs);
  const sim::Duration stride = sim::Duration::seconds(37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adaptive.on_wakeup(ctx));
    ctx.now += stride;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveOnWakeup);

void BM_WaterFillingSolve(benchmark::State& state) {
  const auto slots = static_cast<std::size_t>(state.range(0));
  std::vector<double> intervals(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    intervals[s] = 300.0 + 100.0 * static_cast<double>(s % 13);
  }
  const model::EpochModel m{
      contact::ArrivalProfile{sim::Duration::hours(24), intervals}, 2.0,
      model::SnipParams{}};
  for (auto _ : state) {
    const auto r = model::maximize_capacity(m, 500.0);
    benchmark::DoNotOptimize(r.zeta_s);
  }
}
BENCHMARK(BM_WaterFillingSolve)->Arg(24)->Arg(96);

/// One plan: the fluid-model solve behind a SNIP-AT or SNIP-OPT maker, at
/// a catalog entry's first ζtarget and its Φmax. A fleet pays this once,
/// not once per node; calling the maker only constructs.
void BM_PlanScheduler(benchmark::State& state, const char* entry_name,
                      core::Strategy strategy) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at(entry_name);
  for (auto _ : state) {
    const core::SchedulerMaker maker =
        core::plan_scheduler(entry.scenario, strategy,
                             entry.zeta_targets_s.front(), entry.phi_max_s);
    benchmark::DoNotOptimize(&maker);
  }
}
BENCHMARK_CAPTURE(BM_PlanScheduler, at_roadside, "roadside",
                  core::Strategy::kSnipAt);
BENCHMARK_CAPTURE(BM_PlanScheduler, opt_roadside, "roadside",
                  core::Strategy::kSnipOpt);
BENCHMARK_CAPTURE(BM_PlanScheduler, at_chaos_lossy_collection,
                  "chaos-lossy-collection", core::Strategy::kSnipAt);
BENCHMARK_CAPTURE(BM_PlanScheduler, opt_chaos_lossy_collection,
                  "chaos-lossy-collection", core::Strategy::kSnipOpt);

void BM_UpsilonClosedForm(benchmark::State& state) {
  double duty = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::upsilon_fixed(duty, 2.0, 0.02));
    duty = duty < 0.5 ? duty * 1.01 : 0.001;
  }
}
BENCHMARK(BM_UpsilonClosedForm);

void BM_TraceRoundTrip(benchmark::State& state) {
  const core::RoadsideScenario sc;
  sim::Rng rng{1};
  const auto schedule =
      sc.make_schedule(7, contact::IntervalJitter::kNormalTenth, rng);
  std::ostringstream os;
  trace::write_csv(os, schedule.contacts());
  const std::string csv = os.str();
  for (auto _ : state) {
    std::istringstream is{csv};
    const auto contacts = trace::read_csv(is);
    benchmark::DoNotOptimize(contacts.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(csv.size()) *
                          state.iterations());
}
BENCHMARK(BM_TraceRoundTrip);

void BM_OneStreamingIngest(benchmark::State& state) {
  // A multi-megabyte ONE connectivity report parsed through the
  // streaming line-callback core. The exported peak_window counter is
  // the importer's real memory high-water mark (open + pending merge
  // contacts): it must track the number of concurrently-in-range peers,
  // NOT the event count — a regression back to materialise-then-sort
  // shows up here as peak_window == events.
  const auto epochs = static_cast<std::size_t>(state.range(0));
  trace::SyntheticTraceSpec spec;
  spec.epochs = epochs;
  spec.seed = 13;
  std::ostringstream os;
  trace::SyntheticTraceGenerator{spec}.write_one_report(os, "s0");
  const std::string report = os.str();

  trace::OneStreamStats last{};
  for (auto _ : state) {
    std::istringstream is{report};
    std::size_t contacts = 0;
    last = trace::stream_one_connectivity(
        is, "s0", [&](const contact::Contact&) { ++contacts; });
    benchmark::DoNotOptimize(contacts);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(report.size()) *
                          state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(last.conn_events) *
                          state.iterations());
  state.counters["events"] = static_cast<double>(last.conn_events);
  state.counters["peak_window"] = static_cast<double>(last.peak_window);
}
BENCHMARK(BM_OneStreamingIngest)->Arg(14)->Arg(140);

/// One collection pass over a session list the size of catalog
/// `chaos-lossy-collection`'s at 52 epochs: its 96 nodes, vehicle flow,
/// routing and lossy hand-offs, with about one contact in eighteen
/// probed (about 4.1k sessions, as its SNIP-OPT fleet probes), listed
/// node by node in probe order as the engine exports them.
void BM_RunCollection(benchmark::State& state) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("chaos-lossy-collection");
  const deploy::FleetSpec& spec = *entry.fleet;
  const std::size_t epochs = 52;
  const sim::Duration horizon =
      spec.flow_profile.epoch() * static_cast<std::int64_t>(epochs);
  const deploy::DeploymentConfig deployment =
      deploy::make_fleet_deployment_config(entry.scenario, spec,
                                           entry.phi_max_s, epochs, 1);
  testing::RoadInputs road = testing::materialize_road(spec, 1, horizon);
  const deploy::RoadContactPlan plan = deploy::build_road_contact_plan(
      road.positions_m, spec.road_workload()->range_m, road.vehicles);

  deploy::CollectionInput input;
  input.routing = *spec.routing;
  input.sensing_rate_bps = deployment.node.sensing_rate_bps;
  input.data_rate_bps = deployment.link.data_rate_bps;
  input.range_m = spec.road_workload()->range_m;
  input.horizon_s = horizon.to_seconds();
  sim::Rng pick{2};
  for (std::uint32_t i = 0; i < plan.schedules.size(); ++i) {
    const std::vector<contact::Contact>& contacts =
        plan.schedules[i].contacts();
    for (std::size_t j = 0; j < contacts.size(); ++j) {
      if (!pick.bernoulli(1.0 / 18.0)) continue;
      deploy::CollectionSession session;
      session.node = i;
      session.vehicle = plan.carriers[i][j];
      session.probe_time_s =
          (contacts[j].arrival + contacts[j].length / 4).to_seconds();
      session.departure_s = contacts[j].departure().to_seconds();
      input.sessions.push_back(session);
    }
  }
  input.positions_m = std::move(road.positions_m);
  input.vehicles = std::move(road.vehicles);
  const fault::FaultPlan faults{*spec.faults, spec.nodes};
  for (auto _ : state) {
    fault::CollectionFaultState lossy{spec.faults->collection,
                                      faults.collection_stream(),
                                      input.data_rate_bps};
    input.faults = &lossy;
    const deploy::NetworkOutcome out = deploy::run_collection(input);
    benchmark::DoNotOptimize(out.delivered_bytes);
  }
  state.counters["sessions"] = static_cast<double>(input.sessions.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(input.sessions.size()) *
                          state.iterations());
}
BENCHMARK(BM_RunCollection)->Unit(benchmark::kMicrosecond);

/// `RoadContactBuilder::next` node by node in position order, as fleet
/// shards build their ranges, with a new builder every `range_nodes`
/// nodes (0 = one builder for the whole road). `highway`: the streaming
/// benchmark's road, equal-speed vehicles (20 m/s, 10 m range) on a
/// uniform hourly flow past 2,000 nodes at 1 m spacing, over 52 one-hour
/// epochs (about 620 vehicles). `highway_ranges`: the same road in
/// ranges of 16 nodes, as the 50k-node streaming fleet's 3,128 ranges
/// each build their own. `urban`: catalog `fleet-urban-grid`'s
/// mixed-speed road at 120 m spacing, 1,024 nodes, over 14 epochs (about
/// 1,350 vehicles), as the adaptive benchmark fleet runs. `relay`:
/// catalog `chaos-lossy-collection`'s road, 96 nodes at 1 km spacing
/// with per-vehicle speeds and 40% early exits, over 52 epochs (about
/// 970 vehicles), as the relay benchmark fleet runs. Items are contacts
/// built.
void BM_RoadContactBuilder(benchmark::State& state, const char* entry_name,
                           bool highway, std::size_t nodes,
                           std::int64_t epochs, std::size_t range_nodes) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at(entry_name);
  deploy::FleetSpec spec = *entry.fleet;
  if (highway) {
    deploy::RoadWorkload road;
    road.first_position_m = 50.0;
    road.spacing_m = 1.0;
    road.range_m = 10.0;
    road.speed_mean_mps = 20.0;
    road.speed_stddev_mps = 0.0;
    spec = deploy::FleetSpec::road(nodes, road, spec.strategy,
                                   spec.zeta_target_s);
    spec.flow_profile =
        contact::ArrivalProfile::uniform(sim::Duration::hours(1), 24, 300.0);
  } else {
    spec.nodes = nodes;
  }
  const sim::Duration horizon = spec.flow_profile.epoch() * epochs;
  const testing::RoadInputs road = testing::materialize_road(spec, 1, horizon);
  const double range_m = spec.road_workload()->range_m;
  const std::size_t per_builder = range_nodes == 0 ? nodes : range_nodes;
  std::size_t contacts = 0;
  for (auto _ : state) {
    contacts = 0;
    for (std::size_t begin = 0; begin < nodes; begin += per_builder) {
      deploy::RoadContactBuilder builder{range_m, road.vehicles};
      for (std::size_t i = begin; i < std::min(nodes, begin + per_builder);
           ++i) {
        const contact::ContactSchedule schedule =
            builder.next(road.positions_m[i]);
        contacts += schedule.size();
      }
    }
    benchmark::DoNotOptimize(contacts);
  }
  state.counters["vehicles"] = static_cast<double>(road.vehicles.size());
  state.counters["contacts"] = static_cast<double>(contacts);
  state.SetItemsProcessed(static_cast<std::int64_t>(contacts) *
                          state.iterations());
}
BENCHMARK_CAPTURE(BM_RoadContactBuilder, highway, "fleet-highway-1k", true,
                  2000, 52, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RoadContactBuilder, highway_ranges, "fleet-highway-1k",
                  true, 2000, 52, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RoadContactBuilder, urban, "fleet-urban-grid", false,
                  1024, 14, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RoadContactBuilder, relay, "chaos-lossy-collection",
                  false, 96, 52, 0)
    ->Unit(benchmark::kMillisecond);

/// `ThreadPool::ordered_for` shaped like the streaming fleet's run: 4
/// workers, a window of 8, bodies of ~50 µs of work (a shard) and every
/// 4th commit spinning ~50 µs (a checkpoint write). Items are bodies.
void BM_OrderedForSlowCommit(benchmark::State& state) {
  constexpr std::size_t kItems = 256;
  const auto spin = [](std::chrono::microseconds span) {
    const auto until = std::chrono::steady_clock::now() + span;
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  const core::ThreadPool pool{4};
  for (auto _ : state) {
    pool.ordered_for(
        kItems, 8, [&](std::size_t) { spin(std::chrono::microseconds(50)); },
        [&](std::size_t i) {
          if ((i + 1) % 4 == 0) spin(std::chrono::microseconds(50));
        });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kItems) *
                          state.iterations());
}
BENCHMARK(BM_OrderedForSlowCommit)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The JSON writer's number formatting ("%.10g"), over metric-like
/// doubles spread across 26 decades.
void BM_JsonAppendNumber(benchmark::State& state) {
  std::vector<double> values(4096);
  sim::Rng rng{3};
  for (double& v : values) {
    v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 14.0));
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const double v : values) core::json::append_number(out, v);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(values.size()) *
                          state.iterations());
}
BENCHMARK(BM_JsonAppendNumber);

}  // namespace

BENCHMARK_MAIN();
