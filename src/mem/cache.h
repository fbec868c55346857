// Set-associative cache tag array with true-LRU replacement.
//
// The array tracks tags, valid and dirty bits only; data values live in the
// functional layer. Used for L1/L2/L3 in the hierarchy and directly by unit
// tests.
#ifndef GRAPHPIM_MEM_CACHE_H_
#define GRAPHPIM_MEM_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace graphpim::mem {

class CacheArray {
 public:
  // `size_bytes` must be a multiple of ways * line_bytes; the resulting
  // set count must be a power of two.
  CacheArray(std::uint64_t size_bytes, std::uint32_t ways, std::uint32_t line_bytes);

  // Insert()'s result: the slot it filled and the line it evicted there.
  struct Victim {
    bool valid = false;
    bool dirty = false;
    Addr line_addr = 0;
    std::size_t slot = 0;
  };

  // Looks up `addr`; on a hit promotes the line to MRU.
  bool Lookup(Addr addr);

  // True if the line is present (no LRU update).
  bool Contains(Addr addr) const;

  // Inserts the line for `addr` (must not already be present), evicting the
  // LRU line of the set if needed.
  Victim Insert(Addr addr, bool dirty);

  // The slot of a present line (absent is a bug): its way's index, set *
  // ways + way, below num_slots(). A slot names the line an Insert put
  // there until that line is evicted or invalidated.
  std::size_t SlotOf(Addr addr) const;

  // Marks the line dirty; returns false if not present.
  bool SetDirty(Addr addr);

  // Removes the line; returns true (and sets *was_dirty) if it was present.
  bool Invalidate(Addr addr, bool* was_dirty = nullptr);

  // Empties every set and restarts the LRU clock: the array then behaves
  // as a freshly constructed one. Only the sets an Insert wrote since the
  // last Clear are rewritten, so the cost follows what was filled, not the
  // array's size.
  void Clear();

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t line_bytes() const { return line_bytes_; }
  std::uint64_t size_bytes() const {
    return static_cast<std::uint64_t>(num_sets_) * ways_ * line_bytes_;
  }
  std::size_t num_slots() const { return ways_storage_.size(); }

  // Number of currently valid lines (for tests).
  std::uint64_t ValidLines() const;

 private:
  // 16-byte packed way: tag, valid and dirty share one word so an 8-way set
  // scan touches two cache lines instead of three. Tags are (addr >>
  // line+set bits), well under 62 bits for any simulated address space.
  struct Way {
    std::uint64_t meta = 0;  // (tag << 2) | (dirty << 1) | valid
    std::uint64_t lru = 0;   // larger = more recently used

    bool valid() const { return (meta & 1) != 0; }
    bool dirty() const { return (meta & 2) != 0; }
    Addr tag() const { return meta >> 2; }
  };

  // Valid-line probe word for `tag`: equals way.meta with the dirty bit
  // masked off iff the way is valid and holds `tag`.
  static std::uint64_t ProbeOf(Addr tag) { return (tag << 2) | 1; }

  // The set walk behind Lookup, Contains, SlotOf, SetDirty and Invalidate:
  // the way holding `addr`'s line, or nullptr. Insert walks the set itself,
  // since it must also see the free and LRU ways.
  Way* Find(Addr addr);

  std::uint32_t SetOf(Addr addr) const;
  Addr TagOf(Addr addr) const;
  Addr LineAddr(std::uint32_t set, Addr tag) const;

  std::uint32_t ways_;
  std::uint32_t line_bytes_;
  std::uint32_t num_sets_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;
  std::uint64_t lru_clock_ = 0;
  std::vector<Way> ways_storage_;  // num_sets_ * ways_, row-major by set
  // One bit per set that an Insert wrote since the last Clear. Insert is
  // the only call that makes a way valid, so every other set is still as
  // constructed.
  std::vector<std::uint64_t> filled_sets_;
};

}  // namespace graphpim::mem

#endif  // GRAPHPIM_MEM_CACHE_H_
