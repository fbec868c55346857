// Flat open-addressing hash map keyed by cache-line addresses.
//
// The hierarchy's per-line side tables (sharers superset, atomic line
// serialization) sit on the replay hot path: every fill and every host RMW
// probes one. std::unordered_map pays a node allocation per insert and a
// prime-modulo division per probe; this map is a pair of flat arrays with a
// multiply-shift hash and linear probing, so a hit is typically one cache
// line touch. Deletion uses backward-shift so no tombstones accumulate.
//
// Iteration order is never exposed, so swapping this in for unordered_map
// cannot perturb simulation results.
//
// Key restriction: ~0 is reserved as the empty-slot sentinel. Keys here are
// line addresses (allocation offsets rounded down to a line boundary), which
// can never be all-ones.
#ifndef GRAPHPIM_COMMON_LINE_MAP_H_
#define GRAPHPIM_COMMON_LINE_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace graphpim {

template <typename V>
class LineMap {
 public:
  explicit LineMap(std::size_t min_capacity = 1024) {
    std::size_t cap = std::bit_ceil(min_capacity < 16 ? 16 : min_capacity);
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, V{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  }

  std::size_t size() const { return size_; }

  // Empties the map and keeps its grown capacity: lookups do not depend
  // on capacity, so a cleared map behaves as a fresh one and a reused
  // map skips the Grow calls it already made. An empty map (never filled,
  // or erased back to empty) holds no stale slot and is left alone.
  void Clear() {
    if (size_ == 0) return;
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    std::fill(vals_.begin(), vals_.end(), V{});
    size_ = 0;
  }

  // Pointer to the value for `key`, or nullptr if absent. Stable until the
  // next insert or erase.
  V* Find(Addr key) {
    std::size_t i = Slot(key);
    const std::size_t mask = keys_.size() - 1;
    while (true) {
      if (keys_[i] == key) return &vals_[i];
      if (keys_[i] == kEmpty) return nullptr;
      i = (i + 1) & mask;
    }
  }

  const V* Find(Addr key) const {
    return const_cast<LineMap*>(this)->Find(key);
  }

  // Value for `key`, default-constructing it if absent.
  V& operator[](Addr key) {
    if ((size_ + 1) * 10 >= keys_.size() * 7) Grow();
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = Slot(key);
    while (true) {
      if (keys_[i] == key) return vals_[i];
      if (keys_[i] == kEmpty) {
        keys_[i] = key;
        ++size_;
        return vals_[i];
      }
      i = (i + 1) & mask;
    }
  }

  // Removes `key` if present, backward-shifting the probe chain so lookups
  // never cross a tombstone.
  void Erase(Addr key) {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = Slot(key);
    while (keys_[i] != key) {
      if (keys_[i] == kEmpty) return;
      i = (i + 1) & mask;
    }
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (keys_[j] == kEmpty) break;
      const std::size_t h = Slot(keys_[j]);
      // keys_[j] may fill the hole at i unless its home slot lies in the
      // cyclic range (i, j] — moving it past its home would break probing.
      const bool home_between = (i < j) ? (h > i && h <= j) : (h > i || h <= j);
      if (!home_between) {
        keys_[i] = keys_[j];
        vals_[i] = std::move(vals_[j]);
        i = j;
      }
    }
    keys_[i] = kEmpty;
    vals_[i] = V{};
    --size_;
  }

 private:
  static constexpr Addr kEmpty = ~Addr{0};

  std::size_t Slot(Addr key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Addr> old_keys(keys_.size() * 2, kEmpty);
    std::vector<V> old_vals(keys_.size() * 2, V{});
    old_keys.swap(keys_);
    old_vals.swap(vals_);
    shift_ -= 1;
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t s = 0; s < old_keys.size(); ++s) {
      if (old_keys[s] == kEmpty) continue;
      std::size_t i = Slot(old_keys[s]);
      while (keys_[i] != kEmpty) i = (i + 1) & mask;
      keys_[i] = old_keys[s];
      vals_[i] = std::move(old_vals[s]);
    }
  }

  std::vector<Addr> keys_;
  std::vector<V> vals_;
  std::size_t size_ = 0;
  unsigned shift_;
};

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_LINE_MAP_H_
