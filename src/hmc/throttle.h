// Epoch-capacity bandwidth throttle.
//
// A strict ready-pointer reservation (`start = max(when, ready)`) misorders
// under the loosely-synchronized quantum execution model: a reservation
// carrying a far-future timestamp would block earlier-timestamped requests
// from other cores even though the resource is idle then. This throttle
// instead accounts capacity per fixed time epoch: each epoch admits
// `epoch_ticks / per_op_ticks` operations, and a reservation spills into
// later epochs only when its own epoch is full. Ordering skew within an
// epoch is ignored — which is exactly the tolerance we need.
//
// The counts live in a window of the latest `window` epochs, one slot per
// epoch tagged with the epoch it counts. A reservation before the window
// books its first epoch, and one past it slides the window; either way a
// reservation costs one division and no pass over the window.
#ifndef GRAPHPIM_HMC_THROTTLE_H_
#define GRAPHPIM_HMC_THROTTLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace graphpim::hmc {

class EpochThrottle {
 public:
  // `per_unit_ticks` is the serialization time of one unit (e.g., one FLIT
  // or one controller slot); `epoch_ticks` the accounting granularity.
  EpochThrottle(Tick epoch_ticks, Tick per_unit_ticks, std::size_t window = 64)
      : epoch_ticks_(epoch_ticks), per_unit_ticks_(per_unit_ticks), slots_(window) {
    GP_CHECK(epoch_ticks > 0 && per_unit_ticks > 0);
    GP_CHECK(std::has_single_bit(window), "window must be a power of two");
    capacity_ = static_cast<std::uint32_t>(epoch_ticks / per_unit_ticks);
    if (capacity_ == 0) capacity_ = 1;
  }

  // Reserves `units` starting no earlier than `when`; returns the tick at
  // which the last unit has been serviced.
  Tick Reserve(std::uint32_t units, Tick when) {
    busy_ += static_cast<Tick>(units) * per_unit_ticks_;
    // The past is full history: an epoch before the window books its base.
    std::uint64_t e = std::max<std::uint64_t>(when / epoch_ticks_, base_epoch_);
    std::uint32_t remaining = units;
    std::uint32_t filled_before = 0;
    while (true) {
      std::uint32_t& u = Used(e);
      std::uint32_t avail = capacity_ > u ? capacity_ - u : 0;
      std::uint32_t take = remaining < avail ? remaining : avail;
      filled_before = u;
      u += take;
      remaining -= take;
      if (remaining == 0) break;
      ++e;
    }
    Tick pos = e * epoch_ticks_ +
               static_cast<Tick>(filled_before) * per_unit_ticks_ +
               static_cast<Tick>(units) * per_unit_ticks_;
    return pos > when ? pos : when + static_cast<Tick>(units) * per_unit_ticks_;
  }

  Tick busy_ticks() const { return busy_; }

  // Forgets every reservation: the throttle then answers as a freshly
  // constructed one.
  void Reset() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    base_epoch_ = 0;
    busy_ = 0;
  }

 private:
  // One window slot: the units booked in epoch `epoch`.
  struct Slot {
    std::uint64_t epoch = 0;
    std::uint32_t used = 0;
  };

  // The units booked in epoch `e`, which must not precede the window; an
  // `e` past the window first slides it so `e` is its last epoch. The
  // window is a power of two, so the slot is a mask of the epoch. A slot
  // tagged with another epoch reads as empty: that epoch is congruent to
  // `e` modulo the window and was inside the window when it was booked,
  // so it is at least one window older than `e` and has left the window.
  std::uint32_t& Used(std::uint64_t e) {
    if (e >= base_epoch_ + slots_.size()) base_epoch_ = e + 1 - slots_.size();
    Slot& slot = slots_[static_cast<std::size_t>(e & (slots_.size() - 1))];
    if (slot.epoch != e) slot = Slot{e, 0};
    return slot.used;
  }

  Tick epoch_ticks_;
  Tick per_unit_ticks_;
  std::uint32_t capacity_;
  std::vector<Slot> slots_;
  std::uint64_t base_epoch_ = 0;  // the window holds [base, base + size)
  Tick busy_ = 0;
};

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_THROTTLE_H_
