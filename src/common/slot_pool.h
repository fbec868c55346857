// A pool of identical resources booked by busy-until tick: a core's MSHRs
// or UC/WC buffer slots, a vault's integer or FP functional units.
//
// Which slot serves a request is not observable. A request issues when
// the earliest slot frees (or on arrival, if that is later), and that slot
// then stays busy until the request's own completion. So the pool keeps
// only the multiset of busy-until ticks, as a binary min-heap: reading the
// earliest tick is O(1) and booking a slot O(log n). Of several equal
// minima the heap may book any one; the multiset after the booking is the
// same.
#ifndef GRAPHPIM_COMMON_SLOT_POOL_H_
#define GRAPHPIM_COMMON_SLOT_POOL_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace graphpim {

class SlotPool {
 public:
  explicit SlotPool(std::size_t slots) : ready_(slots, 0) {
    GP_CHECK(slots > 0, "a slot pool needs at least one slot");
  }

  // The tick a request arriving at `when` issues at: when the earliest
  // slot frees, or `when` if that is later. Books nothing; call Release
  // with the request's completion before the next Acquire.
  Tick Acquire(Tick when) const { return std::max(when, ready_[0]); }

  // Keeps the slot the last Acquire picked busy until `done` (which may
  // be earlier than its previous tick).
  void Release(Tick done) {
    const std::size_t n = ready_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      // The earlier child, picked by an add rather than a branch: which
      // child that is varies at random, so a branch would mispredict.
      if (child + 1 < n) {
        child += static_cast<std::size_t>(ready_[child + 1] < ready_[child]);
      }
      if (ready_[child] >= done) break;
      ready_[hole] = ready_[child];
      hole = child;
    }
    ready_[hole] = done;
  }

  // Slots still busy past `t`.
  std::size_t BusyAfter(Tick t) const {
    return static_cast<std::size_t>(std::count_if(
        ready_.begin(), ready_.end(), [t](Tick r) { return r > t; }));
  }

  // The busy-until ticks, in heap order.
  const std::vector<Tick>& ticks() const { return ready_; }

  // Idles every slot, as in a freshly built pool.
  void Reset() { std::fill(ready_.begin(), ready_.end(), 0); }

 private:
  std::vector<Tick> ready_;  // a min-heap: ready_[0] is the earliest
};

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_SLOT_POOL_H_
