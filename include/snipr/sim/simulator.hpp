#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snipr/sim/time.hpp"

/// \file simulator.hpp
/// Several sensor nodes run side by side to one clock.
///
/// A node is its own event loop of two timers (node::SensorNode::run_until)
/// and never interacts with another node while probing, so a fleet needs
/// no shared event queue: a Simulator is the nodes start() put on it, each
/// run to a common bound in turn, in start order. This is the stand-in for
/// COOJA in the paper's evaluation.

namespace snipr::node {
class SensorNode;
}  // namespace snipr::node

namespace snipr::sim {

class Simulator {
 public:
  /// The seed is unused: a node draws only from its own fault stream. It
  /// stays so that callers which pass one still compile.
  explicit Simulator(std::uint64_t /*seed*/ = 1) noexcept {}

  /// The bound the nodes were last run to; a node started now starts here.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Run every started node to `until`, in start order. Returns the
  /// events they executed, summed. Throws std::logic_error on a bound
  /// before now().
  std::size_t run_until(TimePoint until);

 private:
  /// SensorNode::start() puts its node here; the node must outlive every
  /// later run_until().
  friend class node::SensorNode;

  TimePoint now_{TimePoint::zero()};
  std::vector<node::SensorNode*> nodes_;
};

}  // namespace snipr::sim
