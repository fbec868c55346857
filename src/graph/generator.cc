#include "graph/generator.h"

#include <bit>

#include "common/log.h"
#include "common/random.h"

namespace graphpim::graph {

namespace {

// Smallest m with m * 2^-53 >= t — i.e. the integer-domain image of the
// draw threshold. NextDouble() is exactly (Next() >> 11) * 2^-53 (the
// scaling is a power of two, so it never rounds), which makes
// `NextDouble() >= t` equivalent to `(Next() >> 11) >= ThresholdMantissa(t)`
// bit-for-bit; the fix-up loops pin the boundary regardless of how the
// initial product rounded.
std::uint64_t ThresholdMantissa(double t) {
  if (t <= 0.0) return 0;
  if (t >= 1.0) return std::uint64_t{1} << 53;
  auto m = static_cast<std::uint64_t>(t * 0x1p53);
  while (static_cast<double>(m) * 0x1p-53 < t) ++m;
  while (m > 0 && static_cast<double>(m - 1) * 0x1p-53 >= t) --m;
  return m;
}

// Draws one RMAT endpoint pair. The quadrant index is the count of
// thresholds at or below the draw (0..3 for the a / a+b / a+b+c splits,
// same half-open intervals as the naive if-chain), whose high bit is the
// src bit and low bit the dst bit — one branch-free integer pick per scale
// bit, consuming exactly one draw so the RNG sequence (and thus every
// generated graph) is unchanged.
Edge RmatEdge(Rng& rng, std::uint32_t scale, const std::uint64_t thresholds[3]) {
  VertexId src = 0;
  VertexId dst = 0;
  for (std::uint32_t bit = 0; bit < scale; ++bit) {
    const std::uint64_t m = rng.Next() >> 11;
    VertexId k = static_cast<VertexId>(m >= thresholds[0]) +
                 static_cast<VertexId>(m >= thresholds[1]) +
                 static_cast<VertexId>(m >= thresholds[2]);
    src = (src << 1) | (k >> 1);
    dst = (dst << 1) | (k & 1);
  }
  return Edge{src, dst, 1};
}

// Degree-bounded RMAT edge draw loop. Templated on the degree-counter type:
// counters never exceed `cap`, so when the cap fits in uint16 the two
// per-vertex arrays shrink by half — they are hit in random order for every
// drawn edge, and for large graphs their footprint dominates the loop.
template <typename DegT>
void DrawRmatEdges(EdgeList& el, Rng& rng, std::uint64_t target,
                   std::uint32_t scale, const std::uint64_t thresholds[3],
                   std::uint32_t cap, std::uint64_t max_weight) {
  std::vector<DegT> in_deg;
  std::vector<DegT> out_deg;
  if (cap != 0) {
    in_deg.assign(el.num_vertices, 0);
    out_deg.assign(el.num_vertices, 0);
  }
  // Draw from a local generator copy: its state never escapes the loop, so
  // the compiler can keep all four xoshiro words in registers instead of
  // storing them back through the reference on every one of the ~20 draws
  // per edge. Same seed, same sequence — the caller's generator resumes
  // from the copied-back state exactly where a by-reference loop would.
  Rng local = rng;
  while (el.size() < target) {
    Edge e = RmatEdge(local, scale, thresholds);
    if (cap != 0) {
      // Redirect endpoints whose degree budget is exhausted to uniform
      // random vertices (degree bounding, see header comment).
      while (out_deg[e.src] >= cap) {
        e.src = static_cast<VertexId>(local.NextBounded(el.num_vertices));
      }
      while (in_deg[e.dst] >= cap) {
        e.dst = static_cast<VertexId>(local.NextBounded(el.num_vertices));
      }
    }
    if (e.src == e.dst) continue;  // drop self-loops
    if (cap != 0) {
      ++out_deg[e.src];
      ++in_deg[e.dst];
    }
    e.weight = 1 + static_cast<std::uint32_t>(local.NextBounded(max_weight));
    el.push_back(e);
  }
  rng = local;
}

}  // namespace

EdgeList GenerateRmat(const RmatParams& params) {
  if (params.num_vertices < kMinRmatVertices ||
      params.num_vertices > kMaxRmatVertices) {
    GP_THROW("vertices=", params.num_vertices, " is outside the RMAT generator's range [",
             kMinRmatVertices, ", ", kMaxRmatVertices, "]");
  }
  GP_CHECK(params.a + params.b + params.c < 1.0, "RMAT probabilities must sum < 1");
  EdgeList el;
  el.num_vertices = std::bit_ceil(params.num_vertices);
  std::uint32_t scale = static_cast<std::uint32_t>(std::countr_zero(el.num_vertices));
  std::uint64_t target = static_cast<std::uint64_t>(
      params.avg_degree * static_cast<double>(el.num_vertices) + 0.5);
  el.reserve(target);
  Rng rng(params.seed);
  std::uint32_t cap = 0;
  if (params.max_degree_factor > 0) {
    cap = static_cast<std::uint32_t>(params.max_degree_factor * params.avg_degree);
    if (cap < 4) cap = 4;
  }
  const std::uint64_t thresholds[3] = {
      ThresholdMantissa(params.a), ThresholdMantissa(params.a + params.b),
      ThresholdMantissa(params.a + params.b + params.c)};
  if (cap <= 0xffff) {
    DrawRmatEdges<std::uint16_t>(el, rng, target, scale, thresholds, cap,
                                 params.max_weight);
  } else {
    DrawRmatEdges<std::uint32_t>(el, rng, target, scale, thresholds, cap,
                                 params.max_weight);
  }

  // Shuffle vertex ids: RMAT correlates topology with id (hubs cluster at
  // low ids), which would concentrate property traffic in one address
  // region; real dataset ids carry no such correlation.
  std::vector<VertexId> perm(el.num_vertices);
  for (VertexId v = 0; v < el.num_vertices; ++v) perm[v] = v;
  for (VertexId v = el.num_vertices; v > 1; --v) {
    std::uint64_t j = rng.NextBounded(v);
    std::swap(perm[v - 1], perm[j]);
  }
  for (VertexId& v : el.src) v = perm[v];
  for (VertexId& v : el.dst) v = perm[v];
  return el;
}

EdgeList GenerateUniform(VertexId num_vertices, double avg_degree, std::uint64_t seed) {
  GP_CHECK(num_vertices > 1);
  EdgeList el;
  el.num_vertices = num_vertices;
  std::uint64_t target =
      static_cast<std::uint64_t>(avg_degree * static_cast<double>(num_vertices) + 0.5);
  el.reserve(target);
  Rng rng(seed);
  while (el.size() < target) {
    VertexId src = static_cast<VertexId>(rng.NextBounded(num_vertices));
    VertexId dst = static_cast<VertexId>(rng.NextBounded(num_vertices));
    if (src == dst) continue;
    el.push_back(Edge{src, dst, 1 + static_cast<std::uint32_t>(rng.NextBounded(16))});
  }
  return el;
}

EdgeList GenerateProfile(const std::string& profile, VertexId num_vertices,
                         std::uint64_t seed) {
  RmatParams p;
  p.num_vertices = num_vertices;
  p.seed = seed;
  if (profile == "ldbc") {
    p.avg_degree = 28.8;  // Table VI: 1M vertices, 28.8M edges
    p.a = 0.45;           // LDBC SNB skew is milder than classic RMAT
    p.b = 0.22;
    p.c = 0.22;
  } else if (profile == "bitcoin") {
    p.avg_degree = 2.5;   // Table VII: 71.7M vertices, 181.8M edges
    p.a = 0.60;           // heavier hubs: exchange accounts
    p.b = 0.18;
    p.c = 0.18;
  } else if (profile == "twitter") {
    p.avg_degree = 7.7;   // Table VII: 11M vertices, 85M edges
    p.a = 0.55;
    p.b = 0.20;
    p.c = 0.20;
  } else {
    // Recoverable for the same reason as CreateWorkload: one bad sweep
    // cell must not kill the whole sweep.
    GP_THROW("unknown graph profile '", profile, "'");
  }
  return GenerateRmat(p);
}

VertexId LdbcSizeFromName(const std::string& name) {
  if (name == "ldbc-1k") return 1024;
  if (name == "ldbc-10k") return 10 * 1024;
  if (name == "ldbc-100k") return 100 * 1024;
  if (name == "ldbc-1m") return 1024 * 1024;
  GP_FATAL("unknown LDBC dataset '", name, "' (ldbc-1k/10k/100k/1m)");
}

}  // namespace graphpim::graph
