// Tests for the cache hierarchy: hit levels, inclusion, coherence costs,
// MSHR backpressure, prefetch coverage, and atomic line serialization.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/random.h"
#include "hmc/topology.h"
#include "mem/hierarchy.h"

namespace graphpim::mem {
namespace {

struct Fixture {
  StatRegistry stats;
  hmc::HmcParams hp;
  hmc::HmcNetwork net;
  CacheParams cp;
  CacheHierarchy hier;

  explicit Fixture(int cores = 2, CacheParams params = CacheParams())
      : net(hp, &stats, 0, 0), cp(params), hier(cores, cp, &net, &stats) {}
};

struct MixedAccess {
  int core;
  AccessType type;
  Addr addr;
  Tick when;
};

// `n` seeded accesses from cores [0, cores): 60% reads, 25% writes and 15%
// atomics over `lines` lines, half of them to the first 64 lines so that
// cores share lines, at nondecreasing times.
std::vector<MixedAccess> SeededMix(int cores, int n, std::uint64_t lines,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MixedAccess> out;
  out.reserve(static_cast<std::size_t>(n));
  Tick t = 0;
  for (int i = 0; i < n; ++i) {
    MixedAccess a;
    a.core = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(cores)));
    const double kind = rng.NextDouble();
    a.type = kind < 0.60   ? AccessType::kRead
             : kind < 0.85 ? AccessType::kWrite
                           : AccessType::kAtomicRmw;
    const std::uint64_t line =
        rng.NextBool(0.5) ? rng.NextBounded(64) : rng.NextBounded(lines);
    a.addr = line * 64 + rng.NextBounded(64);
    t += rng.NextBounded(NsToTicks(20.0));
    a.when = t;
    out.push_back(a);
  }
  return out;
}

// 64-bit FNV-1a over the little-endian bytes of words and the bytes of
// strings.
class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Add(const std::string& s) {
    for (const char ch : s) Byte(static_cast<unsigned char>(ch));
  }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b) { h_ = (h_ ^ b) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(Hierarchy, MissThenHitLevels) {
  Fixture f;
  AccessResult miss = f.hier.Access(0, AccessType::kRead, 0x1000, 0);
  EXPECT_EQ(miss.hit_level, 0);
  EXPECT_GT(TicksToNs(miss.complete), 50.0);  // walk + memory
  AccessResult hit = f.hier.Access(0, AccessType::kRead, 0x1000, miss.complete);
  EXPECT_EQ(hit.hit_level, 1);
  EXPECT_EQ(hit.complete - miss.complete, f.cp.l1_latency);
}

TEST(Hierarchy, RemoteCoreHitsInL3) {
  Fixture f;
  AccessResult m = f.hier.Access(0, AccessType::kRead, 0x2000, 0);
  // The other core finds the line in the shared L3, not its private levels.
  AccessResult r = f.hier.Access(1, AccessType::kRead, 0x2000, m.complete);
  EXPECT_EQ(r.hit_level, 3);
}

TEST(Hierarchy, WriteInvalidatesRemoteCopy) {
  Fixture f;
  AccessResult a = f.hier.Access(0, AccessType::kRead, 0x3000, 0);
  AccessResult b = f.hier.Access(1, AccessType::kRead, 0x3000, a.complete);
  AccessResult w = f.hier.Access(1, AccessType::kWrite, 0x3000, b.complete);
  EXPECT_TRUE(w.coherence_inval);
  EXPECT_EQ(f.hier.ProbeLevel(0, 0x3000), 3) << "core 0 private copy invalidated";
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.coherence_invals"), 1);
}

TEST(Hierarchy, ProbeLevelNonDestructive) {
  Fixture f;
  EXPECT_EQ(f.hier.ProbeLevel(0, 0x4000), 0);
  f.hier.Access(0, AccessType::kRead, 0x4000, 0);
  EXPECT_EQ(f.hier.ProbeLevel(0, 0x4000), 1);
  EXPECT_EQ(f.hier.ProbeLevel(1, 0x4000), 3);  // only in shared L3 for core 1
}

TEST(Hierarchy, AtomicLineSerializes) {
  Fixture f;
  AccessResult a = f.hier.Access(0, AccessType::kAtomicRmw, 0x5000, 0);
  AccessResult b = f.hier.Access(1, AccessType::kAtomicRmw, 0x5000, 0);
  EXPECT_GE(b.complete, a.complete);
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.atomic_line_waits"), 1);
}

TEST(Hierarchy, AtomicsToDifferentLinesDoNotSerialize) {
  Fixture f;
  f.hier.Access(0, AccessType::kAtomicRmw, 0x6000, 0);
  AccessResult b = f.hier.Access(1, AccessType::kAtomicRmw, 0x7000, 0);
  (void)b;
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.atomic_line_waits"), 0);
}

TEST(Hierarchy, MshrBackpressureReported) {
  CacheParams cp;
  cp.mshrs_per_core = 2;
  cp.prefetch_streams = 0;
  Fixture f(1, cp);
  // Three parallel misses with two MSHRs: the third must report a stall.
  AccessResult r1 = f.hier.Access(0, AccessType::kRead, 0x10000, 0);
  AccessResult r2 = f.hier.Access(0, AccessType::kRead, 0x20000, 0);
  AccessResult r3 = f.hier.Access(0, AccessType::kRead, 0x30000, 0);
  EXPECT_EQ(r1.issue_stall, 0u);
  EXPECT_EQ(r2.issue_stall, 0u);
  EXPECT_GT(r3.issue_stall, 0u);
}

TEST(Hierarchy, PrefetcherCoversSequentialStream) {
  Fixture f;
  Tick t = 0;
  // Establish the stream with two sequential misses, then the rest are
  // covered by the prefetcher (fast completion).
  AccessResult first = f.hier.Access(0, AccessType::kRead, 0x100000, t);
  AccessResult second = f.hier.Access(0, AccessType::kRead, 0x100040, first.complete);
  AccessResult third = f.hier.Access(0, AccessType::kRead, 0x100080, second.complete);
  EXPECT_LT(third.complete - second.complete, first.complete);
  EXPECT_GE(f.stats.Get("cache.prefetch_covered"), 1);
}

TEST(Hierarchy, PrefetcherIgnoresRandomMisses) {
  Fixture f;
  StatRegistry& s = f.stats;
  f.hier.Access(0, AccessType::kRead, 0x200000, 0);
  f.hier.Access(0, AccessType::kRead, 0x543210 & ~63ull, 0);
  f.hier.Access(0, AccessType::kRead, 0x9abcd0 & ~63ull, 0);
  EXPECT_DOUBLE_EQ(s.Get("cache.prefetch_covered"), 0);
}

TEST(Hierarchy, DirtyEvictionWritesBack) {
  CacheParams cp;
  cp.l1_size = 512;   // tiny caches to force eviction quickly
  cp.l1_ways = 2;
  cp.l2_size = 1024;
  cp.l2_ways = 2;
  cp.l3_size = 2048;
  cp.l3_ways = 2;
  cp.prefetch_streams = 0;
  Fixture f(1, cp);
  // Dirty a line, then stream enough conflicting lines through to evict it
  // out of the whole (inclusive) hierarchy.
  f.hier.Access(0, AccessType::kWrite, 0x0, 0);
  for (Addr a = 64; a < 64 * 200; a += 64) {
    f.hier.Access(0, AccessType::kRead, a, 1000000);
  }
  EXPECT_GE(f.stats.Get("cache.writebacks"), 1);
  EXPECT_DOUBLE_EQ(f.stats.Get("hmc.writes"), f.stats.Get("cache.writebacks"));

  // Four cores writing shared lines: a remote dirty copy is forwarded into
  // the L3 on invalidation, and dirty L1 and L2 victims stay dirty one level
  // down (the fills check that inclusion), so memory sees only L3 victims'
  // writebacks.
  Fixture g(4, cp);
  for (const MixedAccess& a : SeededMix(4, 20000, 256, 7)) {
    g.hier.Access(a.core, a.type, a.addr, a.when);
  }
  EXPECT_GT(g.stats.Get("cache.coherence_invals"), 0);
  EXPECT_GT(g.stats.Get("cache.writebacks"), 0);
  EXPECT_DOUBLE_EQ(g.stats.Get("hmc.writes"), g.stats.Get("cache.writebacks"));
}

TEST(Hierarchy, DirectoryMatchesFullScan) {
  // Coherence and back-invalidation visit only the cores whose sharer bits
  // a line's L3 slot holds: one word on 64 cores, two on 65 and three on
  // 130. A write or atomic must still leave no other core a private copy,
  // which is checked here by brute force, and every access result and
  // counter must equal what a scan over every core gives. The hashes were
  // captured from the hierarchy before the sharer bits moved into the L3
  // slots, when 65 and 130 cores scanned every core and 64 cores kept a
  // per-line sharers map.
  CacheParams cp;
  cp.l1_size = 1 * kKiB;
  cp.l1_ways = 2;
  cp.l2_size = 4 * kKiB;
  cp.l2_ways = 4;
  cp.l3_size = 64 * kKiB;
  cp.l3_ways = 8;
  const struct {
    int cores;
    std::uint64_t hash;
  } cases[] = {{64, 0xf20c649555553c69ULL},
               {65, 0x5ea463b371c290f0ULL},
               {130, 0x8420708bb255f5f5ULL}};
  for (const auto& c : cases) {
    Fixture f(c.cores, cp);
    Fnv1a h;
    int stale = 0;
    for (const MixedAccess& a : SeededMix(c.cores, 200000, 4096, 11)) {
      const AccessResult r = f.hier.Access(a.core, a.type, a.addr, a.when);
      for (const std::uint64_t v :
           {r.complete, static_cast<std::uint64_t>(r.hit_level),
            static_cast<std::uint64_t>(r.coherence_inval), r.check_ticks,
            r.issue_stall}) {
        h.Add(v);
      }
      if (a.type == AccessType::kRead) continue;
      for (int k = 0; k < c.cores; ++k) {
        const int level = f.hier.ProbeLevel(k, a.addr);
        if (k != a.core && (level == 1 || level == 2)) ++stale;
      }
    }
    for (const auto& [name, value] : f.stats.AllItems()) {
      h.Add(name);
      h.Add(std::bit_cast<std::uint64_t>(value));
    }
    EXPECT_EQ(stale, 0) << c.cores << " cores";
    EXPECT_EQ(h.value(), c.hash) << c.cores << " cores";
    EXPECT_GT(f.stats.Get("cache.coherence_invals"), 0);
    EXPECT_GT(f.stats.Get("cache.writebacks"), 0);
  }
}

TEST(Hierarchy, InclusiveBackInvalidation) {
  CacheParams cp;
  cp.l1_size = 4 * kKiB;
  cp.l2_size = 8 * kKiB;
  cp.l3_size = 2048;  // tiny shared L3: 32 lines
  cp.l3_ways = 2;
  cp.prefetch_streams = 0;
  Fixture f(1, cp);
  f.hier.Access(0, AccessType::kRead, 0x0, 0);
  ASSERT_EQ(f.hier.ProbeLevel(0, 0x0), 1);
  // Fill L3's set containing 0x0 until the line is evicted; inclusion must
  // purge the private copies too.
  for (int i = 1; i <= 64; ++i) {
    f.hier.Access(0, AccessType::kRead, static_cast<Addr>(i) * 2048, 0);
  }
  EXPECT_EQ(f.hier.ProbeLevel(0, 0x0), 0);
}

TEST(Hierarchy, AtomicMissStatsForFig10) {
  Fixture f;
  f.hier.Access(0, AccessType::kAtomicRmw, 0x8000, 0);  // cold: miss
  f.hier.Access(0, AccessType::kAtomicRmw, 0x8000, 1000000);  // now hits
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.atomic_reqs"), 2);
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.atomic_mem_misses"), 1);
}

TEST(Hierarchy, PerComponentStats) {
  Fixture f;
  f.hier.Access(0, AccessType::kRead, 0x9000, 0, DataComponent::kProperty);
  f.hier.Access(0, AccessType::kRead, 0xA000, 0, DataComponent::kStructure);
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.access.property"), 1);
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.access.structure"), 1);
  EXPECT_DOUBLE_EQ(f.stats.Get("cache.l3_miss.property"), 1);
}

}  // namespace
}  // namespace graphpim::mem
