// Tests for the set-associative cache array.
#include <gtest/gtest.h>

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
