// Functional correctness of every workload against independent references,
// plus trace-level invariants (PMR targeting, barrier consistency).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <set>

#include "graph/generator.h"
#include "workloads/bc.h"
#include "workloads/bfs.h"
#include "workloads/ccomp.h"
#include "workloads/dc.h"
#include "workloads/dfs.h"
#include "workloads/dynamic.h"
#include "workloads/gibbs.h"
#include "workloads/kcore.h"
#include "workloads/prank.h"
#include "workloads/sssp.h"
#include "workloads/tc.h"
#include "workloads/workload.h"

namespace graphpim::workloads {
namespace {

using graph::AddressSpace;
using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;

EdgeList TestGraph(VertexId n = 512, double deg = 6.0, std::uint64_t seed = 3) {
  graph::RmatParams p;
  p.num_vertices = n;
  p.avg_degree = deg;
  p.seed = seed;
  return GenerateRmat(p);
}

struct Built {
  AddressSpace space;
  CsrGraph g;
  explicit Built(const EdgeList& el, bool dedup = false) : g(el, space, dedup) {}
};

Trace Generate(Workload& w, Built& b, int threads = 4) {
  TraceBuilder tb(threads, &b.space);
  w.Generate(b.g, b.space, tb);
  return tb.Take();
}

// ---------------------------------------------------------------- BFS

std::vector<std::int64_t> RefBfs(const CsrGraph& g, VertexId root) {
  std::vector<std::int64_t> depth(g.num_vertices(), -1);
  std::deque<VertexId> q{root};
  depth[root] = 0;
  while (!q.empty()) {
    VertexId u = q.front();
    q.pop_front();
    for (VertexId v : g.Neighbors(u)) {
      if (depth[v] < 0) {
        depth[v] = depth[u] + 1;
        q.push_back(v);
      }
    }
  }
  return depth;
}

TEST(WorkloadBfs, DepthsMatchReference) {
  Built b(TestGraph());
  BfsWorkload bfs(0);
  Generate(bfs, b);
  EXPECT_EQ(bfs.depths(), RefBfs(b.g, 0));
}

TEST(WorkloadBfs, NonZeroRoot) {
  Built b(TestGraph(256, 4.0, 11));
  BfsWorkload bfs(17);
  Generate(bfs, b);
  EXPECT_EQ(bfs.depths(), RefBfs(b.g, 17));
}

TEST(WorkloadBfs, AtomicsTargetPmr) {
  Built b(TestGraph(128, 4.0));
  BfsWorkload bfs(0);
  Trace t = Generate(bfs, b);
  std::uint64_t atomics = 0;
  for (const auto& s : t.streams) {
    for (const auto& op : s) {
      if (op.type == cpu::OpType::kAtomic) {
        ++atomics;
        EXPECT_GE(op.addr, b.space.pmr_base());
        EXPECT_LT(op.addr, b.space.pmr_end());
        EXPECT_EQ(op.aop, hmc::AtomicOp::kCasEqual8);  // Table II
        EXPECT_TRUE(op.WantReturn());
      }
    }
  }
  // Fig 3: one CAS per traversed edge.
  std::uint64_t reachable_edges = 0;
  auto depth = RefBfs(b.g, 0);
  for (VertexId v = 0; v < b.g.num_vertices(); ++v) {
    if (depth[v] >= 0) reachable_edges += b.g.OutDegree(v);
  }
  EXPECT_EQ(atomics, reachable_edges);
}

// ---------------------------------------------------------------- SSSP

std::vector<std::int64_t> RefDijkstra(const CsrGraph& g, VertexId root) {
  const std::int64_t inf = SsspWorkload::kInf;
  std::vector<std::int64_t> dist(g.num_vertices(), inf);
  std::set<std::pair<std::int64_t, VertexId>> pq;
  dist[root] = 0;
  pq.insert({0, root});
  while (!pq.empty()) {
    auto [d, u] = *pq.begin();
    pq.erase(pq.begin());
    if (d > dist[u]) continue;
    auto nbrs = g.Neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      std::int64_t nd = d + g.Weight(g.OffsetOf(u) + i);
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        pq.insert({nd, nbrs[i]});
      }
    }
  }
  return dist;
}

TEST(WorkloadSssp, DistancesMatchDijkstra) {
  Built b(TestGraph(400, 5.0, 7));
  SsspWorkload sssp(0);
  Generate(sssp, b);
  EXPECT_EQ(sssp.distances(), RefDijkstra(b.g, 0));
}

TEST(WorkloadSssp, UnreachableStaysInfinite) {
  EdgeList el(3, {{0, 1, 5}});
  Built b(el);
  SsspWorkload sssp(0);
  Generate(sssp, b);
  EXPECT_EQ(sssp.distances()[1], 5);
  EXPECT_EQ(sssp.distances()[2], SsspWorkload::kInf);
}

// ---------------------------------------------------------------- CComp

std::vector<std::int64_t> RefLabelFixpoint(const CsrGraph& g) {
  std::vector<std::int64_t> label(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) label[v] = v;
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.Neighbors(u)) {
        if (label[u] < label[v]) {
          label[v] = label[u];
          changed = true;
        }
      }
    }
  }
  return label;
}

TEST(WorkloadCcomp, LabelsReachDirectedFixpoint) {
  Built b(TestGraph(300, 4.0, 9));
  CcompWorkload cc;
  Generate(cc, b);
  EXPECT_EQ(cc.labels(), RefLabelFixpoint(b.g));
}

// ---------------------------------------------------------------- kCore

std::vector<bool> RefKcore(const CsrGraph& g, int k) {
  std::vector<std::int64_t> deg(g.num_vertices());
  std::vector<bool> active(g.num_vertices(), true);
  for (VertexId v = 0; v < g.num_vertices(); ++v) deg[v] = g.OutDegree(v);
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (active[v] && deg[v] < k) {
        active[v] = false;
        changed = true;
        for (VertexId u : g.Neighbors(v)) deg[u] -= 1;
      }
    }
  }
  return active;
}

TEST(WorkloadKcore, MatchesReferencePeeling) {
  Built b(TestGraph(400, 6.0, 13));
  KcoreWorkload kc(3, 64);
  Generate(kc, b);
  EXPECT_EQ(kc.in_core(), RefKcore(b.g, 3));
}

TEST(WorkloadKcore, LargeKPeelsEverything) {
  Built b(TestGraph(128, 3.0, 5));
  KcoreWorkload kc(1000, 200);
  Generate(kc, b);
  for (bool alive : kc.in_core()) EXPECT_FALSE(alive);
}

// ---------------------------------------------------------------- TC

TEST(WorkloadTc, CountsTrianglesOnKnownGraph) {
  // 0->1, 0->2, 1->2: out-neighbor intersection of (0,1) = {2}: 1 triangle.
  EdgeList el(3, {{0, 1, 1}, {0, 2, 1}, {1, 2, 1}});
  Built b(el);
  TcWorkload tc;
  Generate(tc, b);
  EXPECT_EQ(tc.triangles(), 1u);
}

std::uint64_t RefTriangles(const CsrGraph& g) {
  std::uint64_t total = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    auto nu = g.Neighbors(u);
    for (VertexId v : nu) {
      if (v <= u) continue;
      auto nv = g.Neighbors(v);
      std::size_t a = 0;
      std::size_t c = 0;
      while (a < nu.size() && c < nv.size()) {
        if (nu[a] == nv[c]) {
          ++total;
          ++a;
          ++c;
        } else if (nu[a] < nv[c]) {
          ++a;
        } else {
          ++c;
        }
      }
    }
  }
  return total;
}

TEST(WorkloadTc, MatchesReferenceOnDedupedGraph) {
  Built b(TestGraph(300, 6.0, 21), /*dedup=*/true);
  TcWorkload tc(/*max_list=*/100000);  // no capping
  Generate(tc, b);
  EXPECT_EQ(tc.triangles(), RefTriangles(b.g));
}

// ---------------------------------------------------------------- PRank

std::vector<double> RefPageRank(const CsrGraph& g, int iters, double d) {
  const double n = static_cast<double>(g.num_vertices());
  std::vector<double> rank(g.num_vertices(), 1.0 / n);
  for (int it = 0; it < iters; ++it) {
    std::vector<double> next(g.num_vertices(), (1.0 - d) / n);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      std::uint32_t deg = g.OutDegree(u);
      if (deg == 0) continue;
      double c = d * rank[u] / deg;
      for (VertexId v : g.Neighbors(u)) next[v] += c;
    }
    rank.swap(next);
  }
  return rank;
}

TEST(WorkloadPrank, MatchesPowerIteration) {
  Built b(TestGraph(300, 5.0, 17));
  PrankWorkload pr(3, 0.85);
  Generate(pr, b);
  auto ref = RefPageRank(b.g, 3, 0.85);
  ASSERT_EQ(pr.ranks().size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(pr.ranks()[i], ref[i], 1e-12) << "vertex " << i;
  }
}

TEST(WorkloadPrank, UsesFpAtomics) {
  Built b(TestGraph(64, 4.0));
  PrankWorkload pr(1);
  Trace t = Generate(pr, b);
  bool fp_seen = false;
  for (const auto& s : t.streams) {
    for (const auto& op : s) {
      if (op.type == cpu::OpType::kAtomic) {
        EXPECT_EQ(op.aop, hmc::AtomicOp::kFpAdd64);
        fp_seen = true;
      }
    }
  }
  EXPECT_TRUE(fp_seen);
}

// ---------------------------------------------------------------- DC

TEST(WorkloadDc, CentralityIsInPlusOutDegree) {
  Built b(TestGraph(256, 5.0, 23));
  DcWorkload dc;
  Generate(dc, b);
  std::vector<std::int64_t> ref(b.g.num_vertices(), 0);
  for (VertexId u = 0; u < b.g.num_vertices(); ++u) {
    ref[u] += b.g.OutDegree(u);
    for (VertexId v : b.g.Neighbors(u)) ref[v] += 1;
  }
  EXPECT_EQ(dc.centrality(), ref);
}

// ---------------------------------------------------------------- DFS

TEST(WorkloadDfs, VisitsEveryVertex) {
  Built b(TestGraph(256, 4.0, 29));
  DfsWorkload dfs;
  Generate(dfs, b);
  for (bool v : dfs.visited()) EXPECT_TRUE(v);
}

// ---------------------------------------------------------------- BC

TEST(WorkloadBc, PathGraphCentrality) {
  // Symmetric path 0 - 1 - 2: with source 0, only vertex 1 lies on a
  // shortest path (the predecessor scan walks out-edges, so BC expects a
  // symmetric graph as GraphBIG's undirected view does).
  EdgeList el(3, {{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}});
  Built b(el);
  BcWorkload bc(1);
  Generate(bc, b, 2);
  EXPECT_DOUBLE_EQ(bc.centrality()[0], 0.0);
  EXPECT_DOUBLE_EQ(bc.centrality()[1], 1.0);
  EXPECT_DOUBLE_EQ(bc.centrality()[2], 0.0);
}

TEST(WorkloadBc, NonNegativeAndFinite) {
  Built b(TestGraph(256, 4.0, 31));
  BcWorkload bc(4);
  Generate(bc, b);
  for (double v : bc.centrality()) {
    EXPECT_GE(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

// --------------------------------------------------------- Dynamic & Gibbs

TEST(WorkloadDynamic, GconsInsertsEveryEdge) {
  Built b(TestGraph(128, 4.0));
  GconsWorkload gc;
  Generate(gc, b);
  EXPECT_EQ(gc.inserted_edges(), b.g.num_edges());
}

TEST(WorkloadDynamic, MetaAtomicsNeverInPmr) {
  Built b(TestGraph(128, 4.0));
  for (Workload* w :
       std::initializer_list<Workload*>{new GconsWorkload(), new GupWorkload(),
                                        new TmorphWorkload()}) {
    Built local(TestGraph(128, 4.0));
    Trace t = Generate(*w, local);
    for (const auto& s : t.streams) {
      for (const auto& op : s) {
        if (op.type == cpu::OpType::kAtomic) {
          EXPECT_LT(op.addr, local.space.pmr_base())
              << w->info().name << ": DG locks live outside the PMR";
        }
      }
    }
    delete w;
  }
}

TEST(WorkloadGibbs, StatesFiniteAndTraceComputeHeavy) {
  Built b(TestGraph(128, 4.0));
  GibbsWorkload gw(1);
  Trace t = Generate(gw, b);
  for (double s : gw.states()) EXPECT_TRUE(std::isfinite(s));
  std::uint64_t computes = 0;
  std::uint64_t total = 0;
  for (const auto& s : t.streams) {
    for (const auto& op : s) {
      ++total;
      if (op.type == cpu::OpType::kCompute) ++computes;
    }
  }
  EXPECT_GT(static_cast<double>(computes) / static_cast<double>(total), 0.3);
}

// ------------------------------------------------------------- Registry

TEST(WorkloadRegistry, ThirteenWorkloads) {
  auto names = AllWorkloadNames();
  EXPECT_EQ(names.size(), 13u);
  for (const auto& n : names) {
    auto w = CreateWorkload(n);
    EXPECT_EQ(w->info().name, n);
  }
}

TEST(WorkloadRegistry, TableIIIApplicability) {
  // Table III expected applicability.
  const std::set<std::string> applicable = {"bfs", "dfs", "dc", "sssp",
                                            "kcore", "ccomp", "tc"};
  for (const auto& n : AllWorkloadNames()) {
    auto w = CreateWorkload(n);
    EXPECT_EQ(w->info().pim_applicable, applicable.count(n) == 1) << n;
    if (!w->info().pim_applicable) {
      EXPECT_FALSE(w->info().missing_op.empty()) << n;
    }
  }
  // FP extension enables BC and PRank (Section III-C).
  EXPECT_TRUE(CreateWorkload("bc")->info().needs_fp_extension);
  EXPECT_TRUE(CreateWorkload("prank")->info().needs_fp_extension);
}

TEST(WorkloadRegistry, EvalSetIsFig7) {
  auto names = EvalWorkloadNames();
  EXPECT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "bfs");
  EXPECT_EQ(names.back(), "prank");
}

// --------------------------------------------------------------- Traces

TEST(TraceInvariants, BarrierCountsEqualAcrossThreads) {
  Built b(TestGraph(256, 4.0));
  for (const auto& name : EvalWorkloadNames()) {
    Built local(TestGraph(256, 4.0));
    auto w = CreateWorkload(name);
    Trace t = Generate(*w, local, 4);
    std::vector<std::uint64_t> barriers;
    for (const auto& s : t.streams) {
      std::uint64_t n = 0;
      for (const auto& op : s) {
        if (op.type == cpu::OpType::kBarrier) ++n;
      }
      barriers.push_back(n);
    }
    for (std::uint64_t n : barriers) EXPECT_EQ(n, barriers[0]) << name;
  }
}

TEST(TraceInvariants, OpCapBoundsTrace) {
  // Uniform graph: the giant component guarantees BFS emits far more than
  // the cap regardless of which vertex is the root.
  Built b(graph::GenerateUniform(1024, 8.0, 3));
  BfsWorkload bfs(0);
  TraceBuilder tb(4, &b.space);
  tb.SetOpCap(1000);
  bfs.Generate(b.g, b.space, tb);
  EXPECT_TRUE(tb.Capped());
  Trace t = tb.Take();
  // Barriers are exempt from the cap; everything else obeys it.
  std::uint64_t non_barrier = 0;
  for (const auto& s : t.streams) {
    for (const auto& op : s) {
      if (op.type != cpu::OpType::kBarrier) ++non_barrier;
    }
  }
  EXPECT_LE(non_barrier, 1000u);
}

TEST(TraceInvariants, ReplaceAtomicsWithPlain) {
  Built b(TestGraph(128, 4.0));
  DcWorkload dc;
  Trace t = Generate(dc, b);
  Trace plain = ReplaceAtomicsWithPlain(t);
  std::uint64_t atomics = 0;
  for (const auto& s : plain.streams) {
    for (const auto& op : s) {
      EXPECT_NE(op.type, cpu::OpType::kAtomic);
      (void)op;
    }
  }
  (void)atomics;
  // Each atomic became load+store: total op count grows accordingly.
  std::uint64_t orig_atomics = 0;
  for (const auto& s : t.streams) {
    for (const auto& op : s) {
      if (op.type == cpu::OpType::kAtomic) ++orig_atomics;
    }
  }
  EXPECT_EQ(plain.TotalOps(), t.TotalOps() + orig_atomics);
}

TEST(TraceInvariants, ThreadChunkPartitions) {
  for (std::size_t total : {0ull, 1ull, 7ull, 100ull}) {
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (int t = 0; t < 4; ++t) {
      auto [b2, e2] = ThreadChunk(total, t, 4);
      EXPECT_EQ(b2, prev_end);
      prev_end = e2;
      covered += e2 - b2;
    }
    EXPECT_EQ(covered, total);
    EXPECT_EQ(prev_end, total);
  }
}

}  // namespace
}  // namespace graphpim::workloads
