// Compressed sparse row graph: the framework's graph-structure component.
//
// The CSR arrays register simulated addresses in the structure segment;
// workloads use OffsetAddr()/NeighborAddr()/WeightAddr() when emitting the
// structure-component loads of their traversal loops.
//
// Host width against simulated width: the simulated machine always lays a
// weight out in four bytes (WeightAddr, StructureBytes and the structure
// segment count four), so traces and cycle counts do not depend on how
// the host stores it. The host copy is a WeightColumn of one byte per
// weight when the widest weight in the edge list fits in eight bits, as
// every generated graph's 1-16 weights do, and four bytes otherwise (a
// loaded edge list may carry any uint32 weight). The width follows the
// weights' values, not the edge list column's width. Weight(e) reads
// either; HostBytes() counts what is held.
#ifndef GRAPHPIM_GRAPH_CSR_H_
#define GRAPHPIM_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/edge_list.h"
#include "graph/region.h"

namespace graphpim::graph {

class CsrGraph {
 public:
  // Builds the CSR from an edge list; each neighbor list is sorted by
  // (destination, weight). `dedup` removes parallel edges, keeping the
  // smallest weight of each group.
  CsrGraph(const EdgeList& el, AddressSpace& space, bool dedup = false);

  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(neighbors_.size()); }

  std::uint32_t OutDegree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  EdgeId OffsetOf(VertexId v) const { return offsets_[v]; }

  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  // The weight of edge `e` (an id in [OffsetOf(v), OffsetOf(v + 1))).
  std::uint32_t Weight(EdgeId e) const { return weights_[e]; }

  // Simulated addresses of the structure arrays.
  Addr OffsetAddr(VertexId v) const { return offsets_addr_ + v * sizeof(EdgeId); }
  Addr NeighborAddr(EdgeId e) const { return neighbors_addr_ + e * sizeof(VertexId); }
  Addr WeightAddr(EdgeId e) const { return weights_addr_ + e * sizeof(std::uint32_t); }

  // Total simulated footprint of the structure arrays, in bytes: four
  // per weight, whatever the host width.
  std::uint64_t StructureBytes() const;

  // Bytes of the host's copy of the structure arrays: one or four per
  // weight.
  std::uint64_t HostBytes() const;

 private:
  VertexId num_vertices_;
  std::vector<EdgeId> offsets_;         // size n+1
  std::vector<VertexId> neighbors_;     // size m
  WeightColumn weights_;                // size m
  Addr offsets_addr_;
  Addr neighbors_addr_;
  Addr weights_addr_;
};

}  // namespace graphpim::graph

#endif  // GRAPHPIM_GRAPH_CSR_H_
