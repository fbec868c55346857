// Unit tests for the common substrate: config, strings, RNG, stats, types,
// the line map and the slot pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/config.h"
#include "common/line_map.h"
#include "common/random.h"
#include "common/slot_pool.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/types.h"

namespace graphpim {
namespace {

TEST(Types, NsToTicksRoundTrips) {
  EXPECT_EQ(NsToTicks(1.0), 1000u);
  EXPECT_EQ(NsToTicks(13.75), 13750u);
  EXPECT_DOUBLE_EQ(TicksToNs(27500), 27.5);
}

TEST(Types, ComponentNames) {
  EXPECT_STREQ(ToString(DataComponent::kMeta), "meta");
  EXPECT_STREQ(ToString(DataComponent::kStructure), "structure");
  EXPECT_STREQ(ToString(DataComponent::kProperty), "property");
  EXPECT_STREQ(ToString(WorkloadCategory::kGraphTraversal), "GT");
  EXPECT_STREQ(ToString(WorkloadCategory::kRichProperty), "RP");
  EXPECT_STREQ(ToString(WorkloadCategory::kDynamicGraph), "DG");
}

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "--vertices=1024", "mode=GraphPIM", "--scale=1.5",
                        "--fp=true"};
  Config cfg = Config::FromArgs(5, const_cast<char**>(argv));
  EXPECT_EQ(cfg.GetUint("vertices", 0), 1024u);
  EXPECT_EQ(cfg.GetString("mode", ""), "GraphPIM");
  EXPECT_DOUBLE_EQ(cfg.GetDouble("scale", 0.0), 1.5);
  EXPECT_TRUE(cfg.GetBool("fp", false));
}

TEST(Config, DefaultsWhenAbsent) {
  Config cfg;
  EXPECT_EQ(cfg.GetInt("missing", -7), -7);
  EXPECT_EQ(cfg.GetUint("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("missing", 2.5), 2.5);
  EXPECT_FALSE(cfg.GetBool("missing", false));
  EXPECT_EQ(cfg.GetString("missing", "x"), "x");
  EXPECT_FALSE(cfg.Has("missing"));
}

TEST(Config, BoolSpellings) {
  Config cfg;
  for (const char* v : {"1", "true", "yes", "on"}) {
    cfg.Set("k", v);
    EXPECT_TRUE(cfg.GetBool("k", false)) << v;
  }
  for (const char* v : {"0", "false", "no", "off"}) {
    cfg.Set("k", v);
    EXPECT_FALSE(cfg.GetBool("k", true)) << v;
  }
}

TEST(Config, SetOverrides) {
  Config cfg;
  cfg.Set("a", "1");
  cfg.Set("a", "2");
  EXPECT_EQ(cfg.GetInt("a", 0), 2);
  EXPECT_EQ(cfg.Items().size(), 1u);
}

TEST(StringUtil, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(Random, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Random, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Random, BoundedStaysInRange) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Random, BoundedCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Stats, AddIncSetGet) {
  StatRegistry s;
  EXPECT_DOUBLE_EQ(s.Get("x"), 0.0);
  s.Inc("x");
  s.Add("x", 2.5);
  EXPECT_DOUBLE_EQ(s.Get("x"), 3.5);
  s.Set("x", 1.0);
  EXPECT_DOUBLE_EQ(s.Get("x"), 1.0);
  EXPECT_TRUE(s.Has("x"));
}

TEST(Stats, InternIsIdempotent) {
  StatRegistry s;
  const StatId a = s.Intern("hmc.reads");
  const StatId b = s.Intern("hmc.reads");
  EXPECT_EQ(a.index(), b.index());
  EXPECT_EQ(s.NumRegistered(), 1u);
  // Handle and string paths hit the same slot.
  s.Add(a, 2.0);
  s.Add("hmc.reads", 3.0);
  EXPECT_DOUBLE_EQ(s.Get(b), 5.0);
  // A distinct name gets a distinct slot.
  EXPECT_NE(s.Intern("hmc.writes").index(), a.index());
  EXPECT_EQ(s.NumRegistered(), 2u);
}

TEST(Stats, RegisteredButUntouchedIsInvisible) {
  // Interning alone must not create output keys: the compat views list
  // only counters that were actually touched, matching the old
  // create-on-first-use StatSet semantics byte for byte.
  StatRegistry s;
  const StatId quiet = s.Intern("never.touched");
  s.Inc("a");
  EXPECT_EQ(s.Items().size(), 1u);
  EXPECT_FALSE(s.Has("never.touched"));
  s.Add(quiet, 0.0);  // touching with zero makes it visible
  EXPECT_TRUE(s.Has("never.touched"));
  EXPECT_EQ(s.Items().size(), 2u);
}

TEST(Stats, Merge) {
  StatRegistry a;
  StatRegistry b;
  a.Add("x", 1);
  b.Add("x", 2);
  b.Add("y", 3);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Get("x"), 3);
  EXPECT_DOUBLE_EQ(a.Get("y"), 3);
}

TEST(Stats, MergeSkipsUntouched) {
  StatRegistry a;
  StatRegistry b;
  b.Intern("ghost");  // registered in b, never touched
  b.Inc("real");
  a.Merge(b);
  EXPECT_FALSE(a.Has("ghost"));
  EXPECT_TRUE(a.Has("real"));
}

TEST(Stats, ItemsSorted) {
  StatRegistry s;
  s.Inc("b");
  s.Inc("a");
  auto items = s.Items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, "a");
}

TEST(Stats, ItemsHidesCoreScopeAllItemsKeepsIt) {
  StatRegistry s;
  s.Inc("core.insts");
  s.Inc("hmc.reads");
  auto compat = s.Items();
  ASSERT_EQ(compat.size(), 1u);
  EXPECT_EQ(compat[0].first, "hmc.reads");
  auto all = s.AllItems();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "core.insts");
}

TEST(Stats, ScopePrefixesAndForwards) {
  StatRegistry reg;
  StatScope scope(&reg, "hmc");
  const StatId reads = scope.Counter("reads");
  scope.Inc(reads);
  scope.Add(reads, 2.0);
  EXPECT_DOUBLE_EQ(reg.Get("hmc.reads"), 3.0);
  StatScope sub = scope.Sub("vault0");
  sub.Inc(sub.Counter("row_hits"));
  EXPECT_DOUBLE_EQ(reg.Get("hmc.vault0.row_hits"), 1.0);
}

TEST(Stats, DetachedScopeIsInertNoOp) {
  // A null-registry scope stands in for the old `if (stats_ != nullptr)`
  // guards: every operation must be a safe no-op.
  StatScope scope(nullptr, "hmc");
  EXPECT_FALSE(scope.attached());
  const StatId id = scope.Counter("reads");
  EXPECT_FALSE(id.valid());
  scope.Inc(id);
  scope.Add(id, 5.0);
  scope.Set(id, 7.0);  // must not crash
}

TEST(Stats, SnapshotDeltaTracksChangesOnly) {
  StatRegistry s;
  s.Add("a", 1.0);
  s.Add("b", 2.0);
  StatSnapshot before = s.Snapshot();
  s.Add("b", 3.0);
  s.Inc("c");
  StatSnapshot after = s.Snapshot();
  auto deltas = DeltaItems(after, before);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].first, "b");
  EXPECT_DOUBLE_EQ(deltas[0].second, 3.0);
  EXPECT_EQ(deltas[1].first, "c");
  EXPECT_DOUBLE_EQ(deltas[1].second, 1.0);
  // Delta against the default-constructed snapshot is the full state.
  EXPECT_EQ(DeltaItems(after, StatSnapshot()).size(), 3u);
}

TEST(Stats, ResetClearsValuesKeepsNames) {
  StatRegistry s;
  const StatId x = s.Intern("x");
  s.Add(x, 5.0);
  s.Reset();
  EXPECT_DOUBLE_EQ(s.Get(x), 0.0);
  EXPECT_FALSE(s.Has("x"));          // untouched again
  EXPECT_EQ(s.NumRegistered(), 1u);  // handle stays valid
  s.Inc(x);
  EXPECT_DOUBLE_EQ(s.Get("x"), 1.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10.0, 4);
  h.Record(5);
  h.Record(15);
  h.Record(35);
  h.Record(1000);  // overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.counts()[4], 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), (5 + 15 + 35 + 1000) / 4.0, 1e-9);
}

TEST(Histogram, NegativeValuesClampToFirstBucket) {
  // Regression: Record(-1) used to cast the negative quotient straight to
  // std::size_t, wrapping to a huge index and landing in the overflow
  // bucket (or worse). Negatives must clamp into bucket [0, w).
  Histogram h(10.0, 4);
  h.Record(-1.0);
  h.Record(-1e9);
  h.Record(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.counts()[0], 3u);
  EXPECT_EQ(h.counts()[4], 0u);  // nothing leaked into overflow
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(Histogram, MeanMatchesLowercaseAccessor) {
  Histogram h(1.0, 8);
  h.Record(2.0);
  h.Record(4.0);
  EXPECT_DOUBLE_EQ(h.Mean(), h.mean());
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(Histogram, PercentileUniform) {
  // 100 values 0..99 into [0,10) buckets: each bucket holds 10 samples.
  Histogram h(10.0, 10);
  for (int i = 0; i < 100; ++i) h.Record(i);
  EXPECT_NEAR(h.Percentile(50), 50.0, 1e-9);
  EXPECT_NEAR(h.Percentile(95), 95.0, 1e-9);
  EXPECT_NEAR(h.Percentile(10), 10.0, 1e-9);
  // p=0 resolves to the start of the first populated bucket.
  EXPECT_NEAR(h.Percentile(0), 0.0, 1e-9);
  // p=100 lands at the top of the last populated bucket.
  EXPECT_NEAR(h.Percentile(100), 100.0, 1e-9);
}

TEST(Histogram, QuantileIsTheGeneralForm) {
  // Percentile(p) is defined as Quantile(p/100); serving SLOs call
  // Quantile directly with q in [0, 1].
  Histogram h(10.0, 10);
  for (int i = 0; i < 100; ++i) h.Record(i);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), h.Percentile(50));
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), h.Percentile(95));
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), h.Percentile(99));
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1e-9);
  // Out-of-range q clamps like out-of-range p always has.
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
  Histogram empty(1.0, 4);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
}

TEST(Histogram, PercentileSkipsEmptyBucketsAndClampsOverflow) {
  Histogram h(10.0, 4);  // buckets [0,10) [10,20) [20,30) [30,40) + overflow
  h.Record(5);
  h.Record(35);
  h.Record(500);  // overflow
  // Rank 1 of 3 sits in the first bucket.
  EXPECT_NEAR(h.Percentile(30), (0.0 + 0.9) * 10.0, 1e-9);
  // Ranks in the overflow bucket report the recorded max.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 500.0);
  // Out-of-range p is clamped rather than UB.
  EXPECT_DOUBLE_EQ(h.Percentile(150), 500.0);
  EXPECT_GE(h.Percentile(-5), 0.0);
}


// A cleared map keeps its grown capacity but answers every insert and
// lookup as a freshly constructed one does.
TEST(LineMap, ClearMatchesAFreshMap) {
  LineMap<Tick> used(16);
  for (Addr k = 0; k < 1000; ++k) used[k * 64] = k + 1;
  used.Clear();
  EXPECT_EQ(used.size(), 0u);
  EXPECT_EQ(used.Find(64), nullptr);
  LineMap<Tick> fresh(16);
  SplitMix64 rng(3);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t r = rng.Next();
    const Addr key = (r >> 8) % 2048 * 64;
    if (r % 2 == 0) {
      const Tick* a = used.Find(key);
      const Tick* b = fresh.Find(key);
      ASSERT_EQ(a == nullptr, b == nullptr) << i;
      if (a != nullptr) {
        EXPECT_EQ(*a, *b) << i;
      }
    } else {
      ASSERT_EQ(used[key], fresh[key]) << i;
      used[key] += r;
      fresh[key] += r;
    }
    ASSERT_EQ(used.size(), fresh.size()) << i;
  }
  for (Addr k = 0; k < 2048; ++k) {
    const Tick* a = used.Find(k * 64);
    const Tick* b = fresh.Find(k * 64);
    ASSERT_EQ(a == nullptr, b == nullptr) << k;
    if (a != nullptr) {
      EXPECT_EQ(*a, *b) << k;
    }
  }
}

// The heap books the same multiset of busy-until ticks as the first-minimum
// scan it replaced, which stays here as the reference: every issue tick and,
// after every booking, the sorted ticks must match. Coarse ticks make ties
// common, and one booking in eight ends before the tick it replaces.
TEST(SlotPool, MatchesFirstMinimumScan) {
  for (const std::size_t size : {1u, 2u, 16u, 17u}) {
    SlotPool pool(size);
    std::vector<Tick> scan(size, 0);
    Rng rng(size);
    Tick now = 0;
    int ties = 0;
    int earlier = 0;
    for (int i = 0; i < 20000; ++i) {
      if (i == 10000) {
        pool.Reset();
        std::fill(scan.begin(), scan.end(), 0);
      }
      now += rng.NextBounded(4) * 10;
      const Tick when = now + rng.NextBounded(8) * 10;
      std::size_t first = 0;
      for (std::size_t j = 1; j < scan.size(); ++j) {
        if (scan[j] < scan[first]) first = j;
      }
      ties += std::count(scan.begin(), scan.end(), scan[first]) > 1 ? 1 : 0;
      const Tick issue = std::max(when, scan[first]);
      ASSERT_EQ(pool.Acquire(when), issue) << size << " " << i;
      const Tick done = rng.NextBounded(8) == 0
                            ? rng.NextBounded(issue + 1)
                            : issue + rng.NextBounded(40) * 10;
      earlier += done < scan[first] ? 1 : 0;
      scan[first] = done;
      pool.Release(done);
      std::vector<Tick> heap = pool.ticks();
      std::sort(heap.begin(), heap.end());
      std::vector<Tick> sorted = scan;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(heap, sorted) << size << " " << i;
      const std::size_t busy = static_cast<std::size_t>(std::count_if(
          scan.begin(), scan.end(), [now](Tick t) { return t > now; }));
      ASSERT_EQ(pool.BusyAfter(now), busy) << size << " " << i;
    }
    EXPECT_GT(earlier, 100) << size;
    if (size > 1) {
      EXPECT_GT(ties, 50) << size;
    }
  }
}

}  // namespace
}  // namespace graphpim
