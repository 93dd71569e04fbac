#pragma once

#include "snipr/sim/time.hpp"

/// \file contact.hpp
/// The contact abstraction: an interval during which one mobile node is
/// inside the sensor node's communication range (Fig. 2 of the paper).

namespace snipr::contact {

struct Contact {
  sim::TimePoint arrival;  ///< mobile node enters range
  sim::Duration length;    ///< Tcontact: time spent in range

  [[nodiscard]] sim::TimePoint departure() const noexcept {
    return arrival + length;
  }
  /// True when `t` falls inside [arrival, departure).
  [[nodiscard]] bool covers(sim::TimePoint t) const noexcept {
    return t >= arrival && t < departure();
  }

  friend bool operator==(const Contact&, const Contact&) = default;
};

}  // namespace snipr::contact
