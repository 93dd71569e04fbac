#include "snipr/radio/channel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

namespace snipr::radio {
namespace {

using contact::Contact;
using contact::ContactSchedule;
using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

ContactSchedule one_contact() {
  return ContactSchedule{
      {{at_s(100), Duration::seconds(2)}}};
}

TEST(Channel, DeliversInsideContact) {
  Channel ch{one_contact(), LinkParams{}};
  EXPECT_TRUE(ch.try_deliver(at_s(100), Duration::milliseconds(1)));
  EXPECT_TRUE(ch.try_deliver(at_s(101.5), Duration::milliseconds(1)));
}

TEST(Channel, FailsOutsideContact) {
  Channel ch{one_contact(), LinkParams{}};
  EXPECT_FALSE(ch.try_deliver(at_s(99), Duration::milliseconds(1)));
  EXPECT_FALSE(ch.try_deliver(at_s(102.5), Duration::milliseconds(1)));
}

TEST(Channel, FrameCrossingDepartureIsLost) {
  Channel ch{one_contact(), LinkParams{}};
  // Transmission starts in range but the mobile leaves mid-frame.
  EXPECT_FALSE(ch.try_deliver(at_s(101.9995), Duration::milliseconds(1)));
  EXPECT_TRUE(ch.try_deliver(at_s(101.999), Duration::milliseconds(1)));
}

TEST(Channel, ZeroAirtimeProbesTheClosedContactInterval) {
  // A zero-airtime delivery is a pure presence query: "is the receiver
  // in range at this instant?" The answer is yes over the CLOSED
  // interval [arrival, departure] — a frame *starting* exactly at the
  // departure instant with no airtime still sees the vehicle, while the
  // half-open covers() test would already say no.
  Channel ch{one_contact(), LinkParams{}};
  EXPECT_TRUE(ch.try_deliver(at_s(100), Duration::zero()));    // arrival
  EXPECT_TRUE(ch.try_deliver(at_s(101), Duration::zero()));    // middle
  EXPECT_TRUE(ch.try_deliver(at_s(102), Duration::zero()));    // departure
  EXPECT_FALSE(ch.try_deliver(at_s(99.999), Duration::zero()));
  EXPECT_FALSE(ch.try_deliver(at_s(102.001), Duration::zero()));
}

TEST(Channel, FrameEndingExactlyAtDepartureIsDelivered) {
  // A positive-airtime frame needs the receiver for the whole airtime;
  // one that ends exactly at the departure instant just makes it.
  Channel ch{one_contact(), LinkParams{}};
  EXPECT_TRUE(ch.try_deliver(at_s(101.999), Duration::milliseconds(1)));
  // Starting exactly at departure with positive airtime cannot.
  EXPECT_FALSE(ch.try_deliver(at_s(102), Duration::milliseconds(1)));
}

TEST(Channel, ZeroLengthContactIsVisibleOnlyToZeroAirtime) {
  // A zero-length contact (arrival == departure) occupies one instant.
  // No positive-airtime frame fits inside it, but a presence query at
  // that instant must still see it.
  ContactSchedule schedule{{{at_s(50), Duration::zero()}}};
  Channel ch{schedule, LinkParams{}};
  EXPECT_TRUE(ch.try_deliver(at_s(50), Duration::zero()));
  EXPECT_FALSE(ch.try_deliver(at_s(50), Duration::milliseconds(1)));
  EXPECT_FALSE(ch.try_deliver(at_s(49.999), Duration::zero()));
  EXPECT_FALSE(ch.try_deliver(at_s(50.001), Duration::zero()));
}

TEST(Channel, ZeroAirtimeBetweenAdjacentContactsMatchesEither) {
  // Back-to-back contacts sharing an instant: contact 0 departs exactly
  // when contact 1 arrives. A presence query at the shared instant is in
  // range either way, and the earlier contact's departure must be found
  // even though the cursor has moved past it.
  ContactSchedule schedule{{{at_s(10), Duration::seconds(2)},
                            {at_s(12), Duration::seconds(2)},
                            {at_s(20), Duration::seconds(1)}}};
  Channel ch{schedule, LinkParams{}};
  EXPECT_TRUE(ch.try_deliver(at_s(12), Duration::zero()));
  EXPECT_TRUE(ch.try_deliver(at_s(14), Duration::zero()));  // 1 departs
  EXPECT_FALSE(ch.try_deliver(at_s(15), Duration::zero()));
  EXPECT_TRUE(ch.try_deliver(at_s(21), Duration::zero()));  // 2 departs
  EXPECT_FALSE(ch.try_deliver(at_s(22), Duration::zero()));
}

TEST(Channel, ActiveContactLookup) {
  Channel ch{one_contact(), LinkParams{}};
  EXPECT_TRUE(ch.active_contact(at_s(100.1)).has_value());
  EXPECT_FALSE(ch.active_contact(at_s(99.0)).has_value());
  EXPECT_EQ(ch.active_contact(at_s(100.1))->arrival, at_s(100));
}

TEST(Channel, NullScheduleIsRejected) {
  EXPECT_THROW((Channel{std::shared_ptr<const ContactSchedule>{},
                        LinkParams{}}),
               std::invalid_argument);
}

TEST(Channel, DefaultLinkParameters) {
  const Channel ch{one_contact(), LinkParams{}};
  EXPECT_EQ(ch.link().beacon_airtime, Duration::milliseconds(1));
  EXPECT_DOUBLE_EQ(ch.link().data_rate_bps, 12500.0);
}

}  // namespace
}  // namespace snipr::radio
