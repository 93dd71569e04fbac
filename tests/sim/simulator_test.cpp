#include "snipr/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "snipr/node/sensor_node.hpp"

namespace snipr::sim {
namespace {

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

/// Polls every 10 s and logs (node, time) of each wakeup to a shared log.
class LoggingPoll final : public node::Scheduler {
 public:
  LoggingPoll(int id, std::vector<std::pair<int, TimePoint>>* log)
      : id_{id}, log_{log} {}
  node::SchedulerDecision on_wakeup(const node::SensorContext& ctx) override {
    log_->emplace_back(id_, ctx.now);
    return {.probe = false, .next_wakeup = Duration::seconds(10)};
  }
  std::string name() const override { return "logging-poll"; }

 private:
  int id_;
  std::vector<std::pair<int, TimePoint>>* log_;
};

/// Nodes with no contacts, each on a lane of one block.
struct Fleet {
  Simulator simulator{1};
  node::NodeBlock block{2};
  radio::Channel channel{
      contact::ContactSchedule{std::vector<contact::Contact>{}},
      radio::LinkParams{}};
  node::MobileNode sink;
  std::vector<std::pair<int, TimePoint>> log;
  LoggingPoll first{0, &log};
  LoggingPoll second{1, &log};
  node::SensorNode a{simulator, channel, sink, first, {}, block, 0};
  node::SensorNode b{simulator, channel, sink, second, {}, block, 1};
};

TEST(Simulator, StartsAtOrigin) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::zero());
  EXPECT_EQ(s.run_until(at_s(5)), 0U);
  EXPECT_EQ(s.now(), at_s(5));
}

TEST(Simulator, RunUntilBackwardsThrows) {
  Simulator s;
  s.run_until(at_s(5));
  EXPECT_THROW(s.run_until(at_s(1)), std::logic_error);
}

TEST(Simulator, RunsEachNodeToTheBoundInStartOrder) {
  Fleet f;
  f.b.start();
  f.a.start();
  // Wakeups at 0, 10, 20 and 30 s each: node b runs to the bound first.
  EXPECT_EQ(f.simulator.run_until(at_s(30)), 8U);
  const std::vector<std::pair<int, TimePoint>> expected{
      {1, at_s(0)}, {1, at_s(10)}, {1, at_s(20)}, {1, at_s(30)},
      {0, at_s(0)}, {0, at_s(10)}, {0, at_s(20)}, {0, at_s(30)}};
  EXPECT_EQ(f.log, expected);
  EXPECT_EQ(f.a.now(), at_s(30));
  EXPECT_EQ(f.b.now(), at_s(30));
  EXPECT_EQ(f.simulator.now(), at_s(30));
}

TEST(Simulator, NodeStartedLaterStartsAtTheSimulatorsClock) {
  Fleet f;
  f.a.start();
  f.simulator.run_until(at_s(15));
  f.b.start();
  f.log.clear();
  EXPECT_EQ(f.simulator.run_until(at_s(25)), 3U);
  const std::vector<std::pair<int, TimePoint>> expected{
      {0, at_s(20)}, {1, at_s(15)}, {1, at_s(25)}};
  EXPECT_EQ(f.log, expected);
}

}  // namespace
}  // namespace snipr::sim
