// Synthetic graph generators.
//
// The paper evaluates on the LDBC social-network graph (Table VI) plus
// Bitcoin and Twitter graphs (Table VII). Those datasets are substituted by
// parameterized synthetic generators (see DESIGN.md): an RMAT generator
// whose skewed degree distribution produces the irregular property-access
// behavior the paper depends on, with named profiles matching the published
// vertex/edge ratios.
#ifndef GRAPHPIM_GRAPH_GENERATOR_H_
#define GRAPHPIM_GRAPH_GENERATOR_H_

#include <cstdint>
#include <string>

#include "graph/edge_list.h"

namespace graphpim::graph {

struct RmatParams {
  VertexId num_vertices = 16 * 1024;  // rounded up to a power of two
  double avg_degree = 16.0;
  double a = 0.57;  // RMAT quadrant probabilities
  double b = 0.19;
  double c = 0.19;
  std::uint64_t seed = 1;
  std::uint32_t max_weight = 16;  // weights uniform in [1, max_weight]

  // Bounds per-vertex in/out degree to factor*avg_degree (0 = unbounded).
  // Real social datasets (LDBC SNB) have bounded degree; unbounded RMAT
  // hubs are a generator artifact that concentrates atomic traffic on a
  // few DRAM banks when graphs are scaled down.
  double max_degree_factor = 16.0;
};

// Vertex counts GenerateRmat accepts. One vertex has only self-loops,
// which the generator drops, so it would never reach its edge count; past
// 2^31 the count has no 32-bit power of two to round up to.
inline constexpr VertexId kMinRmatVertices = 2;
inline constexpr VertexId kMaxRmatVertices = VertexId{1} << 31;

// Generates a directed RMAT graph (self-loops removed, duplicates kept —
// real social graphs have parallel interactions; CSR build can dedup).
// Throws SimError naming `vertices` when the count is outside
// [kMinRmatVertices, kMaxRmatVertices].
EdgeList GenerateRmat(const RmatParams& params);

// Uniform Erdos-Renyi-style random graph (used by tests as a contrast).
EdgeList GenerateUniform(VertexId num_vertices, double avg_degree, std::uint64_t seed);

// Named dataset profiles.
//
//   ldbc      — LDBC social graph family (Table VI): avg degree ~28.8
//   bitcoin   — Bitcoin transaction graph (Table VII): 71.7M vertices /
//               181.8M edges in the paper => avg degree ~2.5
//   twitter   — Twitter follower graph (Table VII): 11M vertices / 85M
//               edges => avg degree ~7.7
//
// `num_vertices` scales the dataset down (the shape is preserved).
EdgeList GenerateProfile(const std::string& profile, VertexId num_vertices,
                         std::uint64_t seed);

// Table VI name -> vertex count ("ldbc-1k" ... "ldbc-1m").
VertexId LdbcSizeFromName(const std::string& name);

}  // namespace graphpim::graph

#endif  // GRAPHPIM_GRAPH_GENERATOR_H_
