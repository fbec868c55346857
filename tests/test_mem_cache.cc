// Tests for the set-associative cache array.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "mem/cache.h"

namespace graphpim::mem {
namespace {

// Drives `c` with a SplitMix64 stream of lookups, inserts of absent
// lines, dirty marks and invalidations over 64 lines of an 8-set array,
// and records every answer, victims included.
std::vector<std::uint64_t> Drive(CacheArray& c, std::uint64_t seed, int ops) {
  SplitMix64 rng(seed);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.Next();
    const Addr addr = (r >> 8) % 64 * 64;
    switch (r % 4) {
      case 0:
        out.push_back(c.Lookup(addr));
        break;
      case 1:
        if (!c.Contains(addr)) {
          const CacheArray::Victim v = c.Insert(addr, ((r >> 4) & 1) != 0);
          out.insert(out.end(), {v.valid, v.dirty, v.line_addr});
        }
        break;
      case 2:
        out.push_back(c.SetDirty(addr));
        break;
      default: {
        bool dirty = false;
        out.push_back(c.Invalidate(addr, &dirty));
        out.push_back(dirty);
      }
    }
  }
  out.push_back(c.ValidLines());
  return out;
}

TEST(CacheArray, Geometry) {
  CacheArray c(32 * kKiB, 8, 64);
  EXPECT_EQ(c.num_sets(), 64u);
  EXPECT_EQ(c.ways(), 8u);
  EXPECT_EQ(c.size_bytes(), 32 * kKiB);
}

TEST(CacheArray, MissThenHit) {
  CacheArray c(4 * kKiB, 4, 64);
  EXPECT_FALSE(c.Lookup(0x1000));
  c.Insert(0x1000, false);
  EXPECT_TRUE(c.Lookup(0x1000));
  EXPECT_TRUE(c.Contains(0x1000));
  EXPECT_FALSE(c.Contains(0x1040));
}

TEST(CacheArray, SubLineAddressesShareLine) {
  CacheArray c(4 * kKiB, 4, 64);
  c.Insert(0x1000, false);
  EXPECT_TRUE(c.Lookup(0x1008));
  EXPECT_TRUE(c.Lookup(0x103F));
  EXPECT_FALSE(c.Lookup(0x1040));
}

TEST(CacheArray, LruEviction) {
  CacheArray c(/*4 sets x 2 ways*/ 512, 2, 64);
  // Fill one set (stride = sets * line = 256).
  c.Insert(0x0, false);
  c.Insert(0x100, false);
  c.Lookup(0x0);  // promote 0x0 to MRU
  CacheArray::Victim v = c.Insert(0x200, false);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line_addr, 0x100u);  // LRU way evicted
  EXPECT_TRUE(c.Contains(0x0));
  EXPECT_FALSE(c.Contains(0x100));
}

TEST(CacheArray, VictimCarriesDirtyBit) {
  CacheArray c(512, 2, 64);
  c.Insert(0x0, true);
  c.Insert(0x100, false);
  CacheArray::Victim v = c.Insert(0x200, false);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line_addr, 0x0u);
  EXPECT_TRUE(v.dirty);
}

TEST(CacheArray, SetDirtyAndInvalidate) {
  CacheArray c(4 * kKiB, 4, 64);
  c.Insert(0x40, false);
  EXPECT_TRUE(c.SetDirty(0x40));
  bool dirty = false;
  EXPECT_TRUE(c.Invalidate(0x40, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_FALSE(c.Contains(0x40));
  EXPECT_FALSE(c.Invalidate(0x40));
  EXPECT_FALSE(c.SetDirty(0x40));
}

TEST(CacheArray, ValidLinesCount) {
  CacheArray c(4 * kKiB, 4, 64);
  EXPECT_EQ(c.ValidLines(), 0u);
  c.Insert(0x0, false);
  c.Insert(0x40, false);
  EXPECT_EQ(c.ValidLines(), 2u);
}

// A cleared array empties every set and restarts its LRU clock, so later
// lookups, inserts and victims equal a fresh array's.
TEST(CacheArray, ClearMatchesAFreshArray) {
  CacheArray used(1024, 2, 64);  // 8 sets x 2 ways
  Drive(used, 1, 500);
  ASSERT_GT(used.ValidLines(), 0u);
  used.Clear();
  EXPECT_EQ(used.ValidLines(), 0u);
  CacheArray fresh(1024, 2, 64);
  EXPECT_EQ(Drive(used, 2, 500), Drive(fresh, 2, 500));
}

// An Insert goes to a free way of the line's set when it has one, a hole
// left by Invalidate included, and reports the slot it filled; an evicted
// line's slot is the one its replacement takes.
TEST(CacheArray, InsertReusesAnInvalidatedSlot) {
  CacheArray c(512, 2, 64);  // 4 sets x 2 ways; 0x0, 0x100, 0x200 in set 0
  const std::size_t first = c.Insert(0x0, false).slot;
  const std::size_t second = c.Insert(0x100, false).slot;
  EXPECT_NE(first, second);
  ASSERT_TRUE(c.Invalidate(0x0));
  const CacheArray::Victim hole = c.Insert(0x200, false);
  EXPECT_FALSE(hole.valid);
  EXPECT_EQ(hole.slot, first);
  EXPECT_EQ(c.SlotOf(0x100), second);
  const CacheArray::Victim evicted = c.Insert(0x300, false);
  ASSERT_TRUE(evicted.valid);
  EXPECT_EQ(evicted.line_addr, 0x100u);
  EXPECT_EQ(evicted.slot, second);
  EXPECT_EQ(c.SlotOf(0x300), second);
}

// Under seeded lookups, inserts and invalidations, every present line keeps
// the slot its Insert reported until it leaves, the slots of present lines
// are distinct and lie in their set's row below num_slots(), and a set
// with a free way never evicts.
TEST(CacheArray, SlotsNameLinesUntilTheyLeave) {
  CacheArray c(1024, 2, 64);  // 8 sets x 2 ways
  ASSERT_EQ(c.num_slots(), 16u);
  std::map<Addr, std::size_t> slot_of;  // the present lines
  SplitMix64 rng(5);
  int evictions = 0;
  int free_way_fills = 0;  // inserts into a set that holds other lines
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t r = rng.Next();
    const Addr addr = (r >> 8) % 64 * 64;
    const std::size_t set = addr / 64 % 8;
    if (r % 3 == 0) {
      if (c.Invalidate(addr)) slot_of.erase(addr);
    } else if (c.Contains(addr)) {
      c.Lookup(addr);
    } else {
      std::size_t in_set = 0;
      for (const auto& [line, slot] : slot_of) {
        if (line / 64 % 8 == set) ++in_set;
      }
      const CacheArray::Victim v = c.Insert(addr, false);
      ASSERT_EQ(v.slot, c.SlotOf(addr)) << i;
      ASSERT_EQ(v.slot / c.ways(), set) << i;
      ASSERT_EQ(v.valid, in_set == c.ways()) << i;
      if (v.valid) {
        ASSERT_EQ(slot_of.at(v.line_addr), v.slot) << i;
        slot_of.erase(v.line_addr);
        ++evictions;
      } else if (in_set > 0) {
        ++free_way_fills;
      }
      slot_of[addr] = v.slot;
    }
    std::set<std::size_t> taken;
    for (const auto& [line, slot] : slot_of) {
      ASSERT_EQ(c.SlotOf(line), slot) << i;
      ASSERT_LT(slot, c.num_slots()) << i;
      ASSERT_TRUE(taken.insert(slot).second) << i;
    }
  }
  EXPECT_EQ(c.ValidLines(), slot_of.size());
  EXPECT_GT(evictions, 100);
  EXPECT_GT(free_way_fills, 100);
}

TEST(CacheArray, CapacityBoundedBySize) {
  CacheArray c(4 * kKiB, 4, 64);
  for (Addr a = 0; a < 64 * kKiB; a += 64) {
    if (!c.Contains(a)) c.Insert(a, false);
  }
  EXPECT_EQ(c.ValidLines(), 4 * kKiB / 64);
}

// Property sweep: inserting N distinct lines into a cache of capacity >= N
// (within one pass) never evicts when sets are hit uniformly.
class CacheSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheSweep, SequentialFillNoPrematureEviction) {
  auto [size_kib, ways] = GetParam();
  CacheArray c(static_cast<std::uint64_t>(size_kib) * kKiB, ways, 64);
  std::uint64_t lines = c.size_bytes() / 64;
  int evictions = 0;
  for (std::uint64_t i = 0; i < lines; ++i) {
    CacheArray::Victim v = c.Insert(i * 64, false);
    if (v.valid) ++evictions;
  }
  EXPECT_EQ(evictions, 0);
  EXPECT_EQ(c.ValidLines(), lines);
  // One more wraps and must evict exactly one line.
  EXPECT_TRUE(c.Insert(lines * 64, false).valid);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheSweep,
                         ::testing::Combine(::testing::Values(4, 16, 64),
                                            ::testing::Values(1, 2, 8, 16)));

}  // namespace
}  // namespace graphpim::mem
