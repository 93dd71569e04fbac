#include "snipr/contact/slot_clock.hpp"

#include <stdexcept>
#include <string>

namespace snipr::contact {

SlotClock::SlotClock(sim::Duration epoch, std::size_t slot_count,
                     const char* owner)
    : epoch_us_{epoch.count()}, slot_us_{1}, slots_{slot_count} {
  if (!(epoch > sim::Duration::zero())) {
    throw std::invalid_argument(std::string{owner} +
                                ": epoch must be positive");
  }
  if (slot_count == 0) {
    throw std::invalid_argument(std::string{owner} +
                                ": need at least one slot");
  }
  if (epoch_us_ % static_cast<std::int64_t>(slot_count) != 0) {
    throw std::invalid_argument(std::string{owner} +
                                ": epoch must divide evenly into slots");
  }
  slot_us_ = epoch_us_ / static_cast<std::int64_t>(slot_count);
}

}  // namespace snipr::contact
