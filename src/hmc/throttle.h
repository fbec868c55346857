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
      : epoch_ticks_(epoch_ticks), per_unit_ticks_(per_unit_ticks), used_(window, 0) {
    GP_CHECK(epoch_ticks > 0 && per_unit_ticks > 0);
    GP_CHECK(std::has_single_bit(window), "window must be a power of two");
    capacity_ = static_cast<std::uint32_t>(epoch_ticks / per_unit_ticks);
    if (capacity_ == 0) capacity_ = 1;
  }

  // Reserves `units` starting no earlier than `when`; returns the tick at
  // which the last unit has been serviced.
  Tick Reserve(std::uint32_t units, Tick when) {
    busy_ += static_cast<Tick>(units) * per_unit_ticks_;
    std::uint64_t e = EpochOf(when);
    if (e < base_epoch_) e = base_epoch_;  // the past is full history
    AdvanceTo(e);
    std::uint32_t remaining = units;
    std::uint32_t filled_before = 0;
    while (true) {
      std::uint32_t& u = used_[Slot(e)];
      std::uint32_t avail = capacity_ > u ? capacity_ - u : 0;
      std::uint32_t take = remaining < avail ? remaining : avail;
      filled_before = u;
      u += take;
      remaining -= take;
      if (remaining == 0 && take > 0) break;
      if (remaining == 0) break;
      ++e;
      AdvanceTo(e);
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
    std::fill(used_.begin(), used_.end(), 0);
    base_epoch_ = 0;
    hint_epoch_ = 0;
    hint_start_ = 0;
    busy_ = 0;
  }

 private:
  // The window is a power of two, so the slot is a mask of the epoch.
  std::size_t Slot(std::uint64_t e) const {
    return static_cast<std::size_t>(e & (used_.size() - 1));
  }

  // floor(when / epoch_ticks_) with a cached last-epoch hint: reservation
  // times advance a few ticks per call, so the hint almost always answers
  // without the 64-bit division.
  std::uint64_t EpochOf(Tick when) {
    Tick d = when - hint_start_;  // wraps huge when `when` precedes the hint
    if (d < epoch_ticks_) return hint_epoch_;
    if (d < 32 * epoch_ticks_) {
      do {
        hint_start_ += epoch_ticks_;
        ++hint_epoch_;
        d -= epoch_ticks_;
      } while (d >= epoch_ticks_);
      return hint_epoch_;
    }
    hint_epoch_ = when / epoch_ticks_;
    hint_start_ = hint_epoch_ * epoch_ticks_;
    return hint_epoch_;
  }

  void AdvanceTo(std::uint64_t e) {
    // Slide the window so epoch `e` is inside it, clearing recycled slots.
    if (e < base_epoch_ + used_.size()) return;
    std::uint64_t new_base = e + 1 - used_.size();
    for (std::uint64_t i = base_epoch_; i < new_base && i < base_epoch_ + used_.size(); ++i) {
      used_[Slot(i)] = 0;
    }
    if (new_base > base_epoch_ + used_.size()) {
      for (auto& u : used_) u = 0;
    }
    base_epoch_ = new_base;
  }

  Tick epoch_ticks_;
  Tick per_unit_ticks_;
  std::uint32_t capacity_;
  std::vector<std::uint32_t> used_;
  std::uint64_t base_epoch_ = 0;
  std::uint64_t hint_epoch_ = 0;  // EpochOf cache: floor(hint_start_/epoch)
  Tick hint_start_ = 0;           // == hint_epoch_ * epoch_ticks_
  Tick busy_ = 0;
};

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_THROTTLE_H_
