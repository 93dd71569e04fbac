#pragma once

#include <optional>

#include "snipr/contact/contact.hpp"
#include "snipr/radio/link.hpp"

/// \file probe_math.hpp
/// Closed-form per-contact probing outcomes.
///
/// For a single contact and a fixed radio grid these are exact, so they
/// validate both the discrete-event simulator and eq. 1, and they provide
/// the mobile-node-initiated probing (MIP) baseline the SNIP paper [10]
/// compares against (Sec. III quotes a 2-10x capacity advantage for SNIP
/// at duty-cycles below 1%).

namespace snipr::radio {

/// SNIP: the sensor beacons at wakeups w_n = phase + n·Tcycle. The contact
/// is probed at the first wakeup whose beacon+reply exchange completes
/// inside the contact (and inside Ton). Returns the awareness time, or
/// nullopt when the contact is missed.
[[nodiscard]] std::optional<sim::TimePoint> snip_awareness_time(
    const contact::Contact& c, sim::Duration tcycle, sim::Duration ton,
    const LinkParams& link, sim::Duration phase = sim::Duration::zero());

/// MIP: the mobile beacons at arrival + k·beacon_period while in range; the
/// sensor listens over [phase + n·Tcycle, phase + n·Tcycle + Ton). The
/// contact is probed at the end of the first mobile beacon that lies
/// wholly inside a listen window. Returns awareness time or nullopt.
[[nodiscard]] std::optional<sim::TimePoint> mip_awareness_time(
    const contact::Contact& c, sim::Duration tcycle, sim::Duration ton,
    const LinkParams& link, sim::Duration beacon_period,
    sim::Duration phase = sim::Duration::zero());

/// Probed capacity Tprobed = departure − awareness for an awareness time,
/// zero for a miss.
[[nodiscard]] sim::Duration probed_capacity(
    const contact::Contact& c, std::optional<sim::TimePoint> awareness);

}  // namespace snipr::radio
