// Additional edge-case and failure-injection coverage across modules.
#include <gtest/gtest.h>

#include <cmath>

#include "analytic/model.h"
#include "core/runner.h"
#include "graph/generator.h"
#include "hmc/cube.h"
#include "workloads/bfs.h"
#include "workloads/prank.h"
#include "workloads/sssp.h"
#include "workloads/tc.h"
#include "workloads/trace.h"

namespace graphpim {
namespace {

// ------------------------------------------------------------ TraceBuilder

TEST(TraceBuilderMore, MispredictRateApproximatelyHonored) {
  graph::AddressSpace space;
  workloads::TraceBuilder tb(1, &space, /*mispredict_rate=*/0.25, /*seed=*/3);
  for (int i = 0; i < 20000; ++i) tb.Branch(0);
  workloads::Trace t = tb.Take();
  int mis = 0;
  for (const auto& op : t.streams[0]) {
    if (op.Mispredict()) ++mis;
  }
  EXPECT_NEAR(mis / 20000.0, 0.25, 0.02);
}

TEST(TraceBuilderMore, ThreadsSampleIndependently) {
  graph::AddressSpace space;
  workloads::TraceBuilder tb(2, &space, 0.5, 7);
  for (int i = 0; i < 64; ++i) {
    tb.Branch(0);
    tb.Branch(1);
  }
  workloads::Trace t = tb.Take();
  // Not all outcomes should match between the two threads.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (t.streams[0][i].Mispredict() == t.streams[1][i].Mispredict()) ++same;
  }
  EXPECT_LT(same, 64);
}

TEST(TraceBuilderMore, ComponentClassificationAutomatic) {
  graph::AddressSpace space;
  Addr meta = space.meta().Allocate(64);
  Addr prop = space.PmrMalloc(64);
  workloads::TraceBuilder tb(1, &space);
  tb.Load(0, meta, 8);
  tb.Load(0, prop, 8);
  workloads::Trace t = tb.Take();
  EXPECT_EQ(t.streams[0][0].comp, DataComponent::kMeta);
  EXPECT_EQ(t.streams[0][1].comp, DataComponent::kProperty);
}

TEST(TraceBuilderMore, TakeTrimsTheTileSpine) {
  // SetOpCap reserves each stream's spine for its share of the cap; a
  // workload that stops well short of it must not leave that reserve in
  // the trace, which drivers replay in place and whose BytesUsed() the
  // report prints as trace.peak_bytes.
  graph::AddressSpace space;
  workloads::TraceBuilder tb(4, &space);
  tb.SetOpCap(4'000'000);
  for (int i = 0; i < 5000; ++i) tb.Branch(i % 4);
  const workloads::Trace t = tb.Take();
  const workloads::Trace copy = t;
  EXPECT_EQ(t.BytesUsed(), copy.BytesUsed());
  EXPECT_EQ(t.BytesUsed(), 4 * (2 * sizeof(cpu::TraceTile) +
                                2 * sizeof(std::unique_ptr<cpu::TraceTile>)));
}

// ------------------------------------------------------------------ HMC

TEST(CubeMore, LinksShareLoad) {
  hmc::HmcParams p;
  hmc::HmcCube cube(p);
  // A burst of reads must not serialize on one link: total time far below
  // single-link serialization of all FLITs.
  Tick last = 0;
  for (int i = 0; i < 64; ++i) {
    last = std::max(last, cube.Read(static_cast<Addr>(i) * 4096, 64, 0).response_at_host);
  }
  EXPECT_GT(cube.TotalLinkBusy(), 0u);
  EXPECT_LT(TicksToNs(last), 200.0);
}

TEST(CubeMore, BankIndexUsesIndependentBits) {
  // Regression for the vault/bank aliasing bug: stride-64 addresses across
  // one vault must spread over multiple banks.
  hmc::HmcParams p;
  p.t_refi = 0;
  hmc::HmcCube cube(p);
  // 16 consecutive blocks in vault 0 are 64*32 bytes apart.
  Tick last = 0;
  for (int i = 0; i < 16; ++i) {
    Addr a = static_cast<Addr>(i) * 64 * 32 * 4;  // vault 0, varying banks
    ASSERT_EQ(cube.VaultOf(a), 0u);
    last = std::max(last, cube.Read(a, 8, 0).internal_done);
  }
  // If all 16 hit one bank this would serialize to ~16*30ns; banked access
  // completes much sooner.
  EXPECT_LT(TicksToNs(last), 250.0);
}

TEST(CubeMore, FunctionalCasZeroChain) {
  hmc::HmcCube cube{hmc::HmcParams{}};
  cube.set_functional(true);
  Addr a = 0x100;
  auto first = cube.Atomic(a, hmc::AtomicOp::kCasZero16, hmc::Value16{42, 0}, true, 0);
  EXPECT_TRUE(first.outcome.flag);
  auto second = cube.Atomic(a, hmc::AtomicOp::kCasZero16, hmc::Value16{7, 0}, true, 0);
  EXPECT_FALSE(second.outcome.flag) << "slot already claimed";
  EXPECT_EQ(cube.FunctionalRead(a).lo, 42u);
}

// ------------------------------------------------------------- Analytic

TEST(AnalyticMore, MorePimOverlapMoreSpeedup) {
  analytic::ModelInputs a;
  a.r_atomic = 0.1;
  a.pim_overlap = 0.5;
  analytic::ModelInputs b = a;
  b.pim_overlap = 0.95;
  EXPECT_GT(analytic::PredictSpeedup(b), analytic::PredictSpeedup(a));
}

TEST(AnalyticMore, RealWorldEnergyNeverAboveOne) {
  analytic::RealWorldApp app;
  app.host_overhead = 0.0;
  app.pim_atomic_pct = 0.0;
  auto e = analytic::EstimateRealWorld(app);
  EXPECT_LE(e.energy_norm, 1.0 + 1e-9);
  EXPECT_NEAR(e.speedup, 1.0, 1e-9);
}

// ------------------------------------------------------------ Workloads

TEST(WorkloadEdge, BfsFromIsolatedRootTerminates) {
  graph::EdgeList el(4, {{1, 2, 1}});
  graph::AddressSpace space;
  graph::CsrGraph g(el, space);
  workloads::BfsWorkload bfs(0);  // vertex 0 has no edges
  workloads::TraceBuilder tb(2, &space);
  bfs.Generate(g, space, tb);
  EXPECT_EQ(bfs.depths()[0], 0);
  EXPECT_EQ(bfs.depths()[1], -1);
}

TEST(WorkloadEdge, SsspIterationCapStopsEarly) {
  // A long chain needs as many frontier iterations as its length.
  graph::EdgeList el;
  el.num_vertices = 32;
  for (VertexId v = 0; v + 1 < 32; ++v) el.push_back({v, v + 1, 1});
  graph::AddressSpace space;
  graph::CsrGraph g(el, space);
  workloads::SsspWorkload capped(0, /*max_iters=*/4);
  workloads::TraceBuilder tb(2, &space);
  capped.Generate(g, space, tb);
  EXPECT_EQ(capped.distances()[4], 4);
  EXPECT_EQ(capped.distances()[31], workloads::SsspWorkload::kInf)
      << "beyond the iteration cap";
}

TEST(WorkloadEdge, TcNoTrianglesOnChain) {
  graph::EdgeList el;
  el.num_vertices = 8;
  for (VertexId v = 0; v + 1 < 8; ++v) el.push_back({v, v + 1, 1});
  graph::AddressSpace space;
  graph::CsrGraph g(el, space);
  workloads::TcWorkload tc;
  workloads::TraceBuilder tb(2, &space);
  tc.Generate(g, space, tb);
  EXPECT_EQ(tc.triangles(), 0u);
}

TEST(WorkloadEdge, PrankMassApproximatelyConserved) {
  graph::EdgeList el = graph::GenerateUniform(512, 8, 9);
  graph::AddressSpace space;
  graph::CsrGraph g(el, space);
  workloads::PrankWorkload pr(4, 0.85);
  workloads::TraceBuilder tb(4, &space);
  pr.Generate(g, space, tb);
  double sum = 0;
  for (double r : pr.ranks()) sum += r;
  // Dangling vertices leak mass, so the sum is <= 1 but substantial.
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GT(sum, 0.5);
}

// --------------------------------------------------------------- Runner

TEST(RunnerMore, BarrierRendezvousWaitsForSlowest) {
  // Thread 0 does heavy work before the barrier, thread 1 almost none;
  // both must leave the barrier together.
  graph::AddressSpace space;
  Addr prop = space.PmrMalloc(1 << 20);
  workloads::TraceBuilder tb(2, &space);
  for (int i = 0; i < 5000; ++i) tb.Compute(0, 4, /*dep=*/true);
  tb.Compute(1, 1);
  tb.Barrier();
  tb.Atomic(1, prop, hmc::AtomicOp::kDualAdd8, 8, false);
  workloads::Trace t = tb.Take();
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = 2;
  core::SimResults r = core::RunSimulation(t, cfg, space.pmr_base(),
                                           space.pmr_end(), core::RunOptions{});
  // Total time must cover thread 0's 20000 dependent cycles.
  EXPECT_GE(r.cycles, 20000u);
}

TEST(RunnerMore, ExperimentFromEdgeList) {
  graph::EdgeList el = graph::GenerateUniform(512, 6, 11);
  core::Experiment::Options o;
  o.num_threads = 4;
  core::Experiment exp(el, "bfs", o);
  EXPECT_EQ(exp.graph().num_vertices(), 512u);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kBaseline);
  cfg.num_cores = 4;
  EXPECT_GT(exp.Run(cfg).cycles, 0u);
}

TEST(RunnerMore, SpeedupDefinition) {
  core::SimResults a;
  core::SimResults b;
  a.cycles = 200;
  b.cycles = 100;
  EXPECT_DOUBLE_EQ(core::Speedup(a, b), 2.0);
}

TEST(RunnerMore, SingleThreadTraceOnManyCores) {
  graph::AddressSpace space;
  workloads::TraceBuilder tb(1, &space);
  for (int i = 0; i < 100; ++i) tb.Compute(0);
  workloads::Trace t = tb.Take();
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kBaseline);
  cfg.num_cores = 16;  // 15 cores idle
  core::SimResults r = core::RunSimulation(t, cfg, 0, 0, core::RunOptions{});
  EXPECT_EQ(r.insts, 100u);
}

// ------------------------------------------------------------ Generator

TEST(GeneratorMore, ShuffleDecorrelatesIdAndDegree) {
  // Hub ids must not cluster at low vertex ids after the permutation.
  graph::RmatParams p;
  p.num_vertices = 8192;
  p.avg_degree = 16;
  graph::EdgeList el = graph::GenerateRmat(p);
  std::vector<std::uint64_t> in_deg(el.num_vertices, 0);
  for (const VertexId dst : el.dst) ++in_deg[dst];
  std::uint64_t low = 0;
  std::uint64_t total = 0;
  for (VertexId v = 0; v < el.num_vertices; ++v) {
    total += in_deg[v];
    if (v < el.num_vertices / 16) low += in_deg[v];
  }
  // Without the shuffle the lowest 1/16 of ids attracts ~20% of edges;
  // shuffled it should hold roughly its proportional share.
  EXPECT_LT(static_cast<double>(low) / total, 0.12);
}

TEST(GeneratorMore, UniformGraphHasNoSelfLoops) {
  graph::EdgeList el = graph::GenerateUniform(256, 8, 3);
  for (std::size_t i = 0; i < el.size(); ++i) EXPECT_NE(el.src[i], el.dst[i]);
}

}  // namespace
}  // namespace graphpim
