// HNSW index + workload tests (DESIGN.md §16): deterministic synthetic
// vectors, bit-reproducible index builds, brute-force recall, the frozen
// PMR layout, POU accounting of the visited-set/beam atomics, and the
// jobs identity of an ann sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/log.h"
#include "core/runner.h"
#include "exec/sweep.h"
#include "graph/hnsw_index.h"
#include "graph/region.h"
#include "graph/vectors.h"
#include "workloads/hnsw.h"
#include "workloads/workload.h"

namespace graphpim {
namespace {

graph::VectorSetParams TinyVectors(std::uint32_t count = 2048) {
  graph::VectorSetParams p;
  p.count = count;
  p.dim = 16;
  p.clusters = 16;
  p.spread = 0.15;
  p.seed = 42;
  return p;
}

TEST(VectorSet, DeterministicAtFixedSeed) {
  const graph::VectorSet a(TinyVectors(256));
  const graph::VectorSet b(TinyVectors(256));
  ASSERT_EQ(a.size(), 256u);
  for (std::uint32_t v = 0; v < a.size(); ++v) {
    for (int d = 0; d < a.dim(); ++d) {
      EXPECT_EQ(a.Vector(v)[d], b.Vector(v)[d]) << v << "," << d;
    }
  }
  EXPECT_EQ(a.Query(3), b.Query(3));
  EXPECT_EQ(a.QueryNear(17, 9), b.QueryNear(17, 9));
}

TEST(VectorSet, BruteForceKnnReturnsNearestFirst) {
  const graph::VectorSet vs(TinyVectors(512));
  const std::vector<float> q = vs.Query(0);
  const std::vector<std::uint32_t> got = graph::BruteForceKnn(vs, q.data(), 8);
  ASSERT_EQ(got.size(), 8u);
  // Distances are non-decreasing, and the head beats every other vector.
  float prev = graph::VectorSet::Dist2(q.data(), vs.Vector(got[0]), vs.dim());
  for (std::size_t i = 1; i < got.size(); ++i) {
    const float d =
        graph::VectorSet::Dist2(q.data(), vs.Vector(got[i]), vs.dim());
    EXPECT_GE(d, prev);
    prev = d;
  }
  const float best =
      graph::VectorSet::Dist2(q.data(), vs.Vector(got[0]), vs.dim());
  for (std::uint32_t v = 0; v < vs.size(); ++v) {
    EXPECT_GE(graph::VectorSet::Dist2(q.data(), vs.Vector(v), vs.dim()) +
                  1e-9f,
              best);
  }
}

TEST(HnswIndex, SameSeedBuildsIdenticalIndex) {
  const graph::VectorSet vs(TinyVectors(768));
  graph::HnswParams hp;
  hp.m = 8;
  hp.ef_construction = 48;
  const graph::HnswIndex a(vs, hp);
  const graph::HnswIndex b(vs, hp);
  EXPECT_EQ(a.entry_point(), b.entry_point());
  EXPECT_EQ(a.max_level(), b.max_level());
  for (std::uint32_t v = 0; v < vs.size(); ++v) {
    ASSERT_EQ(a.LevelOf(v), b.LevelOf(v)) << v;
    for (int l = 0; l <= a.LevelOf(v); ++l) {
      EXPECT_EQ(a.Neighbors(v, l), b.Neighbors(v, l)) << v << "@" << l;
    }
  }
}

TEST(HnswIndex, DegreeCapsAndLevelsHold) {
  const graph::VectorSet vs(TinyVectors(768));
  graph::HnswParams hp;
  hp.m = 6;
  const graph::HnswIndex ix(vs, hp);
  for (std::uint32_t v = 0; v < vs.size(); ++v) {
    ASSERT_GE(ix.LevelOf(v), 0);
    EXPECT_LE(ix.Neighbors(v, 0).size(),
              static_cast<std::size_t>(ix.max_m0()));
    for (int l = 1; l <= ix.LevelOf(v); ++l) {
      EXPECT_LE(ix.Neighbors(v, l).size(), static_cast<std::size_t>(hp.m));
    }
  }
  EXPECT_EQ(ix.LevelOf(ix.entry_point()), ix.max_level());
}

TEST(HnswIndex, RecallAtTenBeatsPointNineOnClusteredData) {
  // The ISSUE acceptance bar: recall@10 >= 0.9 against brute force on a
  // clustered dataset, with a production-ish beam (ef=64).
  const graph::VectorSet vs(TinyVectors(2048));
  graph::HnswParams hp;
  hp.m = 8;
  hp.ef_construction = 64;
  const graph::HnswIndex ix(vs, hp);
  const double recall = graph::SelfCheckRecall(vs, ix, 10, 64, 32);
  EXPECT_GE(recall, 0.9) << "recall@10 = " << recall;
}

TEST(HnswIndex, FrozenLayoutIsPageAlignedInThePmr) {
  const graph::VectorSet vs(TinyVectors(512));
  graph::HnswParams hp;
  hp.m = 8;
  graph::AddressSpace space;
  const graph::HnswIndex ix(vs, hp, &space);
  const std::uint64_t page = graph::AddressSpace::kPmrPageBytes;
  EXPECT_EQ(ix.level0_base() % page, 0u);
  EXPECT_EQ(ix.upper_base() % page, 0u);
  // Fixed stride: count word + 2m slots, 4 bytes each, per vertex.
  const Addr stride = 4 + static_cast<Addr>(ix.max_m0()) * 4;
  EXPECT_EQ(ix.level0_end() - ix.level0_base(),
            static_cast<Addr>(vs.size()) * stride);
  EXPECT_EQ(ix.Level0CountAddr(3), ix.level0_base() + 3 * stride);
  EXPECT_EQ(ix.Level0SlotAddr(3, 2), ix.level0_base() + 3 * stride + 4 + 8);
  // Both blocks live inside the PMR; the offset table does not.
  EXPECT_GE(ix.level0_base(), space.pmr_base());
  EXPECT_LE(ix.upper_end(), space.pmr_end());
  EXPECT_LT(ix.OffsetEntryAddr(0), space.pmr_base());
}

TEST(HnswIndex, SearchClaimsEachVertexOnce) {
  const graph::VectorSet vs(TinyVectors(512));
  graph::HnswParams hp;
  const graph::HnswIndex ix(vs, hp);
  const std::vector<float> q = vs.Query(1);
  std::set<std::uint32_t> claimed;
  std::uint64_t expands = 0;
  auto visit = [&](const graph::HnswIndex::SearchEvent& ev) {
    using Kind = graph::HnswIndex::SearchEvent::Kind;
    if (ev.kind == Kind::kClaim && ev.hit) {
      EXPECT_TRUE(claimed.insert(ev.v).second)
          << "vertex " << ev.v << " claimed twice";
    }
    if (ev.kind == Kind::kExpand) ++expands;
  };
  const std::vector<std::uint32_t> got = ix.Search(q.data(), 10, 32, visit);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_GT(expands, 0u);
  // Every result was claimed during the search.
  for (std::uint32_t id : got) EXPECT_TRUE(claimed.count(id)) << id;
}

TEST(HnswWorkload, FactoryCreatesAndForwardsParams) {
  const auto plain = workloads::CreateWorkload("hnsw");
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(std::string(plain->info().name), "hnsw");
  workloads::WorkloadParams wp;
  wp.ann.dim = 24;
  wp.ann.queries = 4;
  const auto parm = workloads::CreateWorkload("hnsw", wp);
  const auto* h = dynamic_cast<const workloads::HnswWorkload*>(parm.get());
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->ann().dim, 24);
  EXPECT_EQ(h->ann().queries, 4);
  EXPECT_THROW(workloads::CreateWorkload("hnswx"), SimError);
}

core::Experiment::Options HnswOpts() {
  core::Experiment::Options o;
  o.num_threads = 4;
  o.op_cap = 2'000'000;
  o.params.ann.queries = 8;
  return o;
}

TEST(HnswWorkload, VisitedAtomicsOffloadThroughThePou) {
  core::Experiment exp("ldbc", 2048, "hnsw", HnswOpts());
  core::SimConfig pim_cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  pim_cfg.num_cores = 4;
  pim_cfg.trace_sample_rate = 1.0;  // span.atomic.* needs the recorder
  core::SimResults pim = exp.Run(pim_cfg);
  core::SimConfig base_cfg = core::SimConfig::Scaled(core::Mode::kBaseline);
  base_cfg.num_cores = 4;
  core::SimResults base = exp.Run(base_cfg);
  // The visited-set CASes and beam min-swaps are PMR atomics: all of them
  // offload under GraphPIM and none under the baseline.
  EXPECT_GT(pim.atomics, 0u);
  EXPECT_EQ(pim.offloaded_atomics, pim.atomics);
  EXPECT_EQ(base.offloaded_atomics, 0u);
  EXPECT_EQ(pim.raw.Get("pou.offloaded_atomics"),
            static_cast<double>(pim.atomics));
  EXPECT_GT(pim.raw.Get("span.atomic.count"), 0.0);
}

TEST(HnswWorkload, TraceAndRecallAreDeterministic) {
  core::Experiment a("ldbc", 2048, "hnsw", HnswOpts());
  core::Experiment b("ldbc", 2048, "hnsw", HnswOpts());
  const core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  const core::SimResults ra = a.Run(cfg);
  const core::SimResults rb = b.Run(cfg);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.insts, rb.insts);
  EXPECT_EQ(ra.atomics, rb.atomics);
  const auto& wa = dynamic_cast<const workloads::HnswWorkload&>(a.workload());
  const auto& wb = dynamic_cast<const workloads::HnswWorkload&>(b.workload());
  EXPECT_EQ(wa.results(), wb.results());
  EXPECT_EQ(wa.recall(), wb.recall());
  // The search phase genuinely finds neighbors on the clustered set.
  EXPECT_GE(wa.recall(), 0.8) << "recall@" << wa.ann().k;
}

std::string RowFingerprint(const exec::SweepRow& r) {
  return r.workload + "|" + r.config_name + "|" +
         std::to_string(r.results.cycles) + "|" +
         std::to_string(r.results.insts) + "|" +
         std::to_string(r.results.atomics) + "|" +
         std::to_string(r.results.offloaded_atomics) + "|" +
         std::to_string(r.results.req_flits) + "|" +
         std::to_string(r.results.resp_flits);
}

constexpr const char* kAnnSpec =
    "workloads=hnsw;modes=baseline,graphpim;vertices=1024;threads=4;"
    "opcap=300000;seed=9;ann.dim=8;ann.queries=6;ann.ef_search=16;ann.k=4";

TEST(HnswSweep, AnnSweepIsJobsInvariant) {
  const exec::SweepGrid grid = exec::ParseGridSpec(kAnnSpec);
  exec::SweepRunner::Options one;
  one.jobs = 1;
  exec::SweepRunner::Options four;
  four.jobs = 4;
  const exec::SweepResultTable a = exec::SweepRunner(one).Run(grid);
  const exec::SweepResultTable b = exec::SweepRunner(four).Run(grid);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  ASSERT_EQ(a.failed_rows, 0u);
  ASSERT_EQ(b.failed_rows, 0u);
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(RowFingerprint(a.rows[i]), RowFingerprint(b.rows[i])) << i;
    EXPECT_GT(a.rows[i].results.insts, 0u);
  }
}

TEST(HnswSweep, NonUniformAnnConfigsThrow) {
  exec::SweepGrid grid = exec::ParseGridSpec(kAnnSpec);
  ASSERT_GE(grid.configs.size(), 2u);
  grid.configs[1].ann.dim = 32;  // diverges from config 0
  EXPECT_THROW(exec::SweepRunner().Run(grid), SimError);
}

}  // namespace
}  // namespace graphpim
