#include "serve/query.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/random.h"
#include "graph/generator.h"
#include "hmc/atomic.h"

namespace graphpim::serve {

namespace {

constexpr std::uint64_t RoundUpTo(std::uint64_t v, std::uint64_t unit) {
  return (v + unit - 1) / unit * unit;
}

// Serve-side ANN dataset salt: the shared vectors are a pure function of
// (graph seed, salt), decorrelated from every traffic stream.
constexpr std::uint64_t kAnnSeedSalt = 0x616e6e53'45525645ULL;  // "annSERVE"

}  // namespace

ServedGraph::ServedGraph(const Options& opts) : opts_(opts) {
  if (opts.num_vertices == 0) GP_THROW("served graph needs vertices");
  if (opts.num_tenants == 0) {
    GP_THROW("served graph needs at least one tenant");
  }
  // The generated edge list is a temporary of the CSR build, so it is
  // freed before the carves and the ANN index are built.
  graph_ = std::make_unique<graph::CsrGraph>(
      graph::GenerateProfile(opts.profile, opts.num_vertices, opts.seed), space_);

  const std::uint64_t page = graph::AddressSpace::kPmrPageBytes;
  const std::uint64_t seg_bytes = RoundUpTo(
      static_cast<std::uint64_t>(graph_->num_vertices()) *
          graph::kVertexPropertyStride,
      page);
  carves_.reserve(opts.num_tenants);
  queue_addr_.reserve(opts.num_tenants * 2);
  for (std::uint32_t t = 0; t < opts.num_tenants; ++t) {
    TenantCarve c;
    c.tenant = t;
    // Whole-page allocations from the PMR bump allocator are contiguous,
    // so [prop_base, end) is exactly this tenant's page set — disjoint
    // from every other tenant's by construction.
    c.prop_base = space_.PmrMalloc(seg_bytes, page);
    c.aux_base = space_.PmrMalloc(seg_bytes, page);
    GP_CHECK(c.aux_base == c.prop_base + seg_bytes,
             "tenant carve segments must be contiguous");
    c.end = c.aux_base + seg_bytes;
    carves_.push_back(c);
    queue_addr_.push_back(space_.meta().Allocate(kQueueSlots * 4));
    queue_addr_.push_back(space_.meta().Allocate(kQueueSlots * 4));
  }

  // The shared ANN index goes AFTER the carves: with enable_ann off the
  // PMR layout is byte-identical to what this constructor always built,
  // and with it on the carve addresses are unchanged (the index blocks
  // land on fresh pages past every carve).
  if (opts.enable_ann) {
    graph::VectorSetParams vp;
    vp.count = graph_->num_vertices();
    vp.dim = opts.ann.dim;
    vp.clusters = std::max<int>(4, static_cast<int>(vp.count / 128));
    vp.seed = SplitMix64(opts.seed ^ kAnnSeedSalt).Next();
    ann_vectors_ = std::make_unique<graph::VectorSet>(vp);
    graph::HnswParams hp;
    hp.m = opts.ann.m;
    hp.ef_construction = std::max(2 * opts.ann.m, opts.ann.ef_search);
    ann_index_ =
        std::make_unique<graph::HnswIndex>(*ann_vectors_, hp, &space_);
  }
}

int ServedGraph::OwnerOf(Addr a) const {
  for (const TenantCarve& c : carves_) {
    if (c.Contains(a)) return static_cast<int>(c.tenant);
  }
  return -1;
}

namespace {

// Shared bounded-traversal plumbing for the registered query kinds. Each
// op pattern below mirrors the per-neighbor body of the matching batch
// workload (src/workloads/{bfs,sssp,prank,hnsw}.cc) so a serve replay
// exercises the same property/structure/meta mix the paper characterizes.
struct QueryCtx {
  const ServedGraph& sg;
  const TenantCarve& carve;
  workloads::TraceBuilder& tb;
  const QueryParams& qp;
  int t;  // stream
  Addr q0, q1;  // ping-pong frontier queues (meta scratch)
  QueryFootprint fp;

  bool Budget(std::uint64_t cost) {
    if (fp.ops + cost > qp.op_budget) return false;
    fp.ops += cost;
    return true;
  }
  Addr Slot(Addr q, std::size_t i) const {
    return q + (i % ServedGraph::kQueueSlots) * 4;
  }
};

void EmitBfsQuery(QueryCtx& cx, VertexId root) {
  const graph::CsrGraph& g = cx.sg.graph();
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  std::vector<VertexId> frontier{root};
  visited[root] = 1;
  ++cx.fp.vertices;
  Addr qa = cx.q0, qb = cx.q1;
  for (int hop = 0; hop < cx.qp.max_hops && !frontier.empty(); ++hop) {
    std::vector<VertexId> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      VertexId u = frontier[i];
      if (!cx.Budget(2)) return;
      cx.tb.Load(cx.t, cx.Slot(qa, i), 4);                   // meta: pop
      cx.tb.Load(cx.t, g.OffsetAddr(u), 8, /*dep=*/true);    // structure
      EdgeId e = g.OffsetOf(u);
      for (VertexId v : g.Neighbors(u)) {
        if (!cx.Budget(5)) return;
        cx.tb.Load(cx.t, g.NeighborAddr(e), 4);
        cx.tb.Compute(cx.t, 1, /*dep=*/true);
        cx.tb.Compute(cx.t, 1);
        cx.tb.Atomic(cx.t, cx.carve.PropAddr(v), hmc::AtomicOp::kCasEqual8,
                     8, /*want_return=*/true, /*dep=*/true);
        cx.tb.Branch(cx.t, /*dep=*/true);
        ++cx.fp.edges;
        if (!visited[v] && next.size() < cx.qp.max_frontier) {
          visited[v] = 1;
          ++cx.fp.vertices;
          if (!cx.Budget(1)) return;
          cx.tb.Store(cx.t, cx.Slot(qb, next.size()), 4);    // meta: push
          next.push_back(v);
        }
        ++e;
      }
    }
    frontier.swap(next);
    std::swap(qa, qb);
  }
}

void EmitSsspQuery(QueryCtx& cx, VertexId root) {
  const graph::CsrGraph& g = cx.sg.graph();
  constexpr std::int64_t kInf = (1LL << 60);
  std::vector<std::int64_t> dist(g.num_vertices(), kInf);
  std::vector<VertexId> frontier{root};
  dist[root] = 0;
  ++cx.fp.vertices;
  Addr qa = cx.q0, qb = cx.q1;
  for (int hop = 0; hop < cx.qp.max_hops && !frontier.empty(); ++hop) {
    std::vector<VertexId> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      VertexId u = frontier[i];
      if (!cx.Budget(3)) return;
      cx.tb.Load(cx.t, cx.Slot(qa, i), 4);                      // meta: pop
      cx.tb.Load(cx.t, cx.carve.PropAddr(u), 8, /*dep=*/true);  // my distance
      cx.tb.Load(cx.t, g.OffsetAddr(u), 8);                     // structure
      const std::int64_t du = dist[u];
      EdgeId e = g.OffsetOf(u);
      auto neighbors = g.Neighbors(u);
      for (std::size_t j = 0; j < neighbors.size(); ++j) {
        VertexId v = neighbors[j];
        if (!cx.Budget(6)) return;
        cx.tb.Load(cx.t, g.NeighborAddr(e), 4);
        cx.tb.Load(cx.t, g.WeightAddr(e), 4);
        cx.tb.Compute(cx.t, 1, /*dep=*/true);  // nd = du + w
        cx.tb.Compute(cx.t, 1);
        cx.tb.Load(cx.t, cx.carve.PropAddr(v), 8, /*dep=*/true,
                   /*fusable_cmp=*/true);      // relax compare block
        cx.tb.Branch(cx.t, /*dep=*/true);
        ++cx.fp.edges;
        const std::int64_t nd = du + g.Weight(e);
        if (nd < dist[v]) {
          if (!cx.Budget(3)) return;
          cx.tb.Atomic(cx.t, cx.carve.PropAddr(v), hmc::AtomicOp::kCasEqual8,
                       8, /*want_return=*/true, /*dep=*/true);
          cx.tb.Branch(cx.t, /*dep=*/true);
          const bool fresh = dist[v] == kInf;
          dist[v] = nd;
          if (fresh && next.size() < cx.qp.max_frontier) {
            ++cx.fp.vertices;
            cx.tb.Store(cx.t, cx.Slot(qb, next.size()), 4);  // meta: push
            next.push_back(v);
          }
        }
        ++e;
      }
    }
    frontier.swap(next);
    std::swap(qa, qb);
  }
}

// Personalized PageRank, push style: scatter damped mass from the root's
// bounded neighborhood into the tenant's accumulator array. The per-vertex
// body is the batch scatter phase (load rank, load row ptr, fp compute,
// per-edge neighbor load + FP-add atomic); the rooted frontier replaces
// the whole-graph sweep.
void EmitPrankQuery(QueryCtx& cx, VertexId root) {
  const graph::CsrGraph& g = cx.sg.graph();
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  std::vector<VertexId> frontier{root};
  visited[root] = 1;
  ++cx.fp.vertices;
  Addr qa = cx.q0, qb = cx.q1;
  for (int hop = 0; hop < cx.qp.max_hops && !frontier.empty(); ++hop) {
    std::vector<VertexId> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      VertexId u = frontier[i];
      if (g.OutDegree(u) == 0) continue;
      if (!cx.Budget(4)) return;
      cx.tb.Load(cx.t, cx.Slot(qa, i), 4);                 // meta: pop
      cx.tb.Load(cx.t, cx.carve.PropAddr(u), 8);           // my rank
      cx.tb.Load(cx.t, g.OffsetAddr(u), 8);                // structure
      cx.tb.Compute(cx.t, 1, /*dep=*/true, /*fp=*/true);   // contrib
      EdgeId e = g.OffsetOf(u);
      for (VertexId v : g.Neighbors(u)) {
        if (!cx.Budget(2)) return;
        cx.tb.Load(cx.t, g.NeighborAddr(e), 4);
        cx.tb.Atomic(cx.t, cx.carve.AuxAddr(v), hmc::AtomicOp::kFpAdd64, 8,
                     /*want_return=*/false, /*dep=*/true);
        ++cx.fp.edges;
        if (!visited[v] && next.size() < cx.qp.max_frontier) {
          visited[v] = 1;
          ++cx.fp.vertices;
          if (!cx.Budget(1)) return;
          cx.tb.Store(cx.t, cx.Slot(qb, next.size()), 4);  // meta: push
          next.push_back(v);
        }
        ++e;
      }
    }
    frontier.swap(next);
    std::swap(qa, qb);
  }
}

// k-NN point query: one HNSW beam search over the shared index, replayed
// as a micro-op stream. Index walks (offset rows, neighbor slots) load
// the shared blocks; the visited-set claim is a CAS-if-equal on the
// tenant's per-vertex prop word; a beam improvement takes a hashed
// striped lock in the tenant's aux array (CAS-acquire, plain-store
// release), publishes the new bound with a CAS-if-less min-swap on the
// root's aux slot, and pushes the candidate into the meta heap scratch.
void EmitKnnQuery(QueryCtx& cx, VertexId root, const ServeRequest& req) {
  const ServedGraph& sg = cx.sg;
  if (!sg.has_ann()) {
    GP_THROW("knn query kind needs the shared ANN index: the served graph "
             "was built with enable_ann off");
  }
  const workloads::AnnParams& ann = sg.options().ann;
  const VertexId n = sg.graph().num_vertices();
  // Distance cost: one fused FP op per 8 lanes (SIMD-width arithmetic).
  const int dist_cycles = (ann.dim + 7) / 8;
  // Lock stripe of v: hashed into the low slots of the aux array.
  const std::uint64_t stripes = std::min<std::uint64_t>(1024, n);
  // Query vector: near the root's vector, perturbation keyed by the
  // request id — deterministic per request, distinct across requests.
  const std::vector<float> q = sg.ann_vectors().QueryNear(root, req.id);
  std::uint64_t pushes = 0;
  bool stop = false;  // budget exhausted: search finishes silently
  auto visitor = [&](const graph::HnswIndex::SearchEvent& ev) {
    using Kind = graph::HnswIndex::SearchEvent::Kind;
    if (stop) return;
    switch (ev.kind) {
      case Kind::kExpand:
        // List header: structure-segment offset row above level 0, the
        // level-0 count word (shared PMR block) at the bottom.
        if (!cx.Budget(1)) { stop = true; return; }
        cx.tb.Load(cx.t, ev.addr, ev.level > 0 ? 8 : 4);
        break;
      case Kind::kNeighbor:
        if (!cx.Budget(2)) { stop = true; return; }
        cx.tb.Load(cx.t, ev.addr, 4);  // neighbor id slot
        cx.tb.Compute(cx.t, dist_cycles, /*dep=*/true, /*fp=*/true);
        ++cx.fp.edges;
        break;
      case Kind::kClaim:
        // Visited-set marking: the check IS the compare half of one CAS
        // on the vertex's in-carve prop word (Fig 3 discipline).
        if (!cx.Budget(2)) { stop = true; return; }
        cx.tb.Atomic(cx.t, cx.carve.PropAddr(ev.v), hmc::AtomicOp::kCasEqual8,
                     8, /*want_return=*/true, /*dep=*/true);
        cx.tb.Branch(cx.t, /*dep=*/true);
        if (ev.hit) ++cx.fp.vertices;
        break;
      case Kind::kImprove:
        if (!cx.Budget(ev.hit ? 5 : 1)) { stop = true; return; }
        cx.tb.Branch(cx.t, /*dep=*/true);  // bound compare
        if (ev.hit) {
          const VertexId s = static_cast<VertexId>(
              SplitMix64(static_cast<std::uint64_t>(ev.v) ^ 0x53545250ULL)
                  .Next() %
              stripes);
          cx.tb.Atomic(cx.t, cx.carve.AuxAddr(s), hmc::AtomicOp::kCasEqual8,
                       8, /*want_return=*/true, /*dep=*/true);
          cx.tb.Atomic(cx.t, cx.carve.AuxAddr(root),
                       hmc::AtomicOp::kCasLess16, 16,
                       /*want_return=*/false, /*dep=*/true);
          cx.tb.Store(cx.t, cx.Slot(cx.q1, pushes++), 4);  // meta: heap push
          cx.tb.Store(cx.t, cx.carve.AuxAddr(s), 8);       // release
        }
        break;
    }
  };
  sg.ann_index().Search(q.data(), ann.k, ann.ef_search, visitor);
}

// --- registry adapters --------------------------------------------------
// Each adapter owns root clamping and context construction; the bodies
// above stay in the shared QueryCtx idiom.

QueryCtx MakeCtx(const ServedGraph& sg, const ServeRequest& req,
                 const QueryParams& qp, workloads::TraceBuilder& tb,
                 int stream) {
  return QueryCtx{sg,
                  sg.carve(req.tenant),
                  tb,
                  qp,
                  stream,
                  sg.QueueAddr(req.tenant, 0),
                  sg.QueueAddr(req.tenant, 1),
                  QueryFootprint{}};
}

VertexId ClampRoot(const ServedGraph& sg, const ServeRequest& req) {
  const VertexId n = sg.graph().num_vertices();
  return req.root < n ? req.root : 0;
}

QueryFootprint EmitBfs(const ServedGraph& sg, const ServeRequest& req,
                       const QueryParams& qp, workloads::TraceBuilder& tb,
                       int stream) {
  QueryCtx cx = MakeCtx(sg, req, qp, tb, stream);
  EmitBfsQuery(cx, ClampRoot(sg, req));
  return cx.fp;
}

QueryFootprint EmitSssp(const ServedGraph& sg, const ServeRequest& req,
                        const QueryParams& qp, workloads::TraceBuilder& tb,
                        int stream) {
  QueryCtx cx = MakeCtx(sg, req, qp, tb, stream);
  EmitSsspQuery(cx, ClampRoot(sg, req));
  return cx.fp;
}

QueryFootprint EmitPrank(const ServedGraph& sg, const ServeRequest& req,
                         const QueryParams& qp, workloads::TraceBuilder& tb,
                         int stream) {
  QueryCtx cx = MakeCtx(sg, req, qp, tb, stream);
  EmitPrankQuery(cx, ClampRoot(sg, req));
  return cx.fp;
}

QueryFootprint EmitKnn(const ServedGraph& sg, const ServeRequest& req,
                       const QueryParams& qp, workloads::TraceBuilder& tb,
                       int stream) {
  QueryCtx cx = MakeCtx(sg, req, qp, tb, stream);
  EmitKnnQuery(cx, ClampRoot(sg, req), req);
  return cx.fp;
}

// Every current kind roots uniformly over the vertex set — the draw the
// traffic generator has always made. A future kind with a different root
// domain (say, high-degree hubs only) registers its own sampler without
// touching the generator.
VertexId SampleRootUniform(std::uint64_t raw, VertexId num_vertices) {
  return static_cast<VertexId>(raw % num_vertices);
}

}  // namespace

const std::vector<QueryEmitter>& QueryEmitters() {
  // Registration order is the QueryKindId assignment — append-only.
  static const std::vector<QueryEmitter> kEmitters = {
      {"bfs", EmitBfs, SampleRootUniform},
      {"sssp", EmitSssp, SampleRootUniform},
      {"prank", EmitPrank, SampleRootUniform},
      {"knn", EmitKnn, SampleRootUniform},
  };
  return kEmitters;
}

int FindQueryKind(const std::string& name) {
  const std::vector<QueryEmitter>& ems = QueryEmitters();
  for (std::size_t i = 0; i < ems.size(); ++i) {
    if (name == ems[i].name) return static_cast<int>(i);
  }
  return -1;
}

const char* QueryKindName(QueryKindId kind) {
  const std::vector<QueryEmitter>& ems = QueryEmitters();
  return kind < ems.size() ? ems[kind].name : "?";
}

QueryFootprint EmitQuery(const ServedGraph& sg, const ServeRequest& req,
                         const QueryParams& qp, workloads::TraceBuilder& tb,
                         int stream) {
  GP_CHECK(req.tenant < sg.num_tenants(), "request tenant out of range");
  const std::vector<QueryEmitter>& ems = QueryEmitters();
  if (req.kind >= ems.size()) {
    GP_THROW("query kind id ", static_cast<int>(req.kind),
             " is not a registered kind (", ems.size(), " registered)");
  }
  return ems[req.kind].emit(sg, req, qp, tb, stream);
}

}  // namespace graphpim::serve
