#include "workloads/sssp.h"

#include "graph/property.h"

namespace graphpim::workloads {

const WorkloadInfo& SsspWorkload::info() const {
  static const WorkloadInfo kInfo{
      "sssp",
      "Shortest Path",
      WorkloadCategory::kGraphTraversal,
      /*pim_applicable=*/true,
      /*missing_op=*/"",
      /*host_instr=*/"lock cmpxchg",
      /*pim_op=*/"CAS if equal",
      /*needs_fp_extension=*/false};
  return kInfo;
}

void SsspWorkload::Generate(const graph::CsrGraph& g, graph::AddressSpace& space,
                            TraceBuilder& tb) {
  const VertexId n = g.num_vertices();
  const int num_threads = tb.num_threads();

  graph::PropertyArray<std::int64_t> dist(space.pmr(), n, kInf);
  Addr frontier_addr = space.meta().Allocate(static_cast<std::uint64_t>(n) * 4);
  Addr next_addr = space.meta().Allocate(static_cast<std::uint64_t>(n) * 4);

  VertexId root = root_ < n ? root_ : 0;
  dist[root] = 0;
  std::vector<VertexId> frontier{root};
  std::vector<bool> queued(n, false);

  for (int iter = 0; iter < max_iters_ && !frontier.empty(); ++iter) {
    std::vector<VertexId> next;
    for (int t = 0; t < num_threads; ++t) {
      auto [begin, end] = ThreadChunk(frontier.size(), t, num_threads);
      for (std::size_t i = begin; i < end; ++i) {
        VertexId u = frontier[i];
        tb.Load(t, frontier_addr + i * 4, 4);          // meta: queue pop
        tb.Load(t, dist.AddrOf(u), 8, /*dep=*/true);   // property: my distance
        tb.Load(t, g.OffsetAddr(u), 8);                // structure: row ptr
        std::int64_t du = dist[u];
        EdgeId e = g.OffsetOf(u);
        auto neighbors = g.Neighbors(u);
        for (std::size_t j = 0; j < neighbors.size(); ++j) {
          VertexId v = neighbors[j];
          tb.Load(t, g.NeighborAddr(e), 4);            // structure: neighbor
          tb.Load(t, g.WeightAddr(e), 4);              // structure: weight
          tb.Compute(t, 1, /*dep=*/true);              // nd = du + w
          tb.Compute(t, 1);                            // loop bookkeeping
          tb.Load(t, dist.AddrOf(v), 8, /*dep=*/true,
                  /*fusable_cmp=*/true);  // property: current (relax block)
          tb.Branch(t, /*dep=*/true);
          std::int64_t nd = du + g.Weight(e);
          if (nd < dist[v]) {
            tb.Atomic(t, dist.AddrOf(v), hmc::AtomicOp::kCasEqual8, 8,
                      /*want_return=*/true, /*dep=*/true);
            tb.Branch(t, /*dep=*/true);  // CAS success?
            dist[v] = nd;
            if (!queued[v]) {
              queued[v] = true;
              tb.Store(t, next_addr + next.size() * 4, 4);  // meta: push
              next.push_back(v);
            }
          }
          ++e;
        }
      }
    }
    tb.Barrier();
    for (VertexId v : next) queued[v] = false;
    frontier.swap(next);
    std::swap(frontier_addr, next_addr);
  }

  dist_.assign(n, kInf);
  for (VertexId v = 0; v < n; ++v) dist_[v] = dist[v];
}

}  // namespace graphpim::workloads
