#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace graphpim::mem {

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  GP_CHECK(ways > 0 && line_bytes > 0);
  GP_CHECK(std::has_single_bit(line_bytes), "line size must be a power of two");
  GP_CHECK(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) == 0,
           "cache size must be a multiple of ways*line");
  std::uint64_t sets = size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes);
  GP_CHECK(sets > 0 && std::has_single_bit(sets), "set count must be a power of two");
  num_sets_ = static_cast<std::uint32_t>(sets);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
  ways_storage_.resize(static_cast<std::size_t>(num_sets_) * ways_);
  filled_sets_.resize((static_cast<std::size_t>(num_sets_) + 63) / 64);
}

std::uint32_t CacheArray::SetOf(Addr addr) const {
  return static_cast<std::uint32_t>((addr >> line_shift_) & (num_sets_ - 1));
}

Addr CacheArray::TagOf(Addr addr) const {
  return addr >> (line_shift_ + set_shift_);
}

Addr CacheArray::LineAddr(std::uint32_t set, Addr tag) const {
  return (tag << (line_shift_ + set_shift_)) | (static_cast<Addr>(set) << line_shift_);
}

CacheArray::Way* CacheArray::Find(Addr addr) {
  Way* base = &ways_storage_[static_cast<std::size_t>(SetOf(addr)) * ways_];
  const std::uint64_t probe = ProbeOf(TagOf(addr));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((base[w].meta & ~std::uint64_t{2}) == probe) return &base[w];
  }
  return nullptr;
}

bool CacheArray::Lookup(Addr addr) {
  Way* way = Find(addr);
  if (way == nullptr) return false;
  way->lru = ++lru_clock_;
  return true;
}

bool CacheArray::Contains(Addr addr) const {
  // Find only reads the array; the cast lets this probe share its walk.
  return const_cast<CacheArray*>(this)->Find(addr) != nullptr;
}

std::size_t CacheArray::SlotOf(Addr addr) const {
  const Way* way = const_cast<CacheArray*>(this)->Find(addr);
  GP_CHECK(way != nullptr, "SlotOf() of a line not present");
  return static_cast<std::size_t>(way - ways_storage_.data());
}

CacheArray::Victim CacheArray::Insert(Addr addr, bool dirty) {
  std::uint32_t set = SetOf(addr);
  Addr tag = TagOf(addr);
  Way* base = &ways_storage_[static_cast<std::size_t>(set) * ways_];
  // One walk over every way: it compares each valid way's tag (a free way
  // earlier in the set does not end it) and finds the first free way and
  // the least recently used one. The line goes to the first free way, else
  // to the LRU way.
  Way* hole = nullptr;
  Way* lru = base;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!base[w].valid()) {
      if (hole == nullptr) hole = &base[w];
      continue;
    }
    GP_CHECK(base[w].tag() != tag, "Insert() of a line already present");
    if (base[w].lru < lru->lru) lru = &base[w];
  }
  Way* target = hole != nullptr ? hole : lru;
  Victim victim;
  victim.slot = static_cast<std::size_t>(target - ways_storage_.data());
  if (target->valid()) {
    victim.valid = true;
    victim.dirty = target->dirty();
    victim.line_addr = LineAddr(set, target->tag());
  }
  target->meta = (tag << 2) | (dirty ? 3u : 1u);
  target->lru = ++lru_clock_;
  filled_sets_[set >> 6] |= std::uint64_t{1} << (set & 63);
  return victim;
}

bool CacheArray::SetDirty(Addr addr) {
  Way* way = Find(addr);
  if (way == nullptr) return false;
  way->meta |= 2;
  return true;
}

bool CacheArray::Invalidate(Addr addr, bool* was_dirty) {
  Way* way = Find(addr);
  if (way == nullptr) return false;
  if (was_dirty != nullptr) *was_dirty = way->dirty();
  way->meta = 0;
  return true;
}

void CacheArray::Clear() {
  for (std::size_t w = 0; w < filled_sets_.size(); ++w) {
    for (std::uint64_t bits = filled_sets_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t set =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      Way* base = &ways_storage_[set * ways_];
      std::fill(base, base + ways_, Way{});
    }
    filled_sets_[w] = 0;
  }
  lru_clock_ = 0;
}

std::uint64_t CacheArray::ValidLines() const {
  std::uint64_t n = 0;
  for (const Way& w : ways_storage_) {
    if (w.valid()) ++n;
  }
  return n;
}

}  // namespace graphpim::mem
