// Deterministic HNSW index with a PMR-resident adjacency layout
// (DESIGN.md §16).
//
// Functionally this is the standard hierarchical navigable-small-world
// graph: vertices are assigned exponentially-distributed levels, inserted
// one by one with an ef_construction beam search per layer, and linked
// with the distance-diversity neighbor-selection heuristic (keep a
// candidate only if it is closer to the query than to every neighbor
// already kept). Every random draw is value-derived — the level of vertex
// v is a pure hash of (seed, v) — and all heap orderings tie-break on the
// vertex id, so the same (VectorSet, HnswParams) always builds the same
// index, independent of platform or thread count.
//
// The simulated layout mirrors the flat storage of production HNSW cores:
// one contiguous level-0 block of fixed-stride neighbor lists
// ([count, n0, n1, ...] per vertex, capacity 2*m), page-aligned in the PMR
// so the CubeMap stripes it across every cube of the machine, plus one
// packed upper-level block reached through a structure-segment offset
// table. Search() reports each memory touch through an optional visitor,
// which is how the hnsw workload and the serve engine's knn query kind
// turn a search into a micro-op stream without duplicating the algorithm.
#ifndef GRAPHPIM_GRAPH_HNSW_INDEX_H_
#define GRAPHPIM_GRAPH_HNSW_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "graph/region.h"
#include "graph/vectors.h"

namespace graphpim::graph {

struct HnswParams {
  int m = 8;                // degree target; level-0 lists hold up to 2*m
  int ef_construction = 64; // build-time beam width
  std::uint64_t seed = 0x484e5357ULL;  // level-assignment stream ("HNSW")
};

class HnswIndex {
 public:
  // Builds the index over every element of `vs` (insertion in id order).
  // When `space` is non-null the adjacency blocks are allocated from its
  // PMR (level-0 + upper) and structure (offset table) segments so
  // searches can report simulated addresses; with a null space all
  // addresses are 0 and the index is functional-only.
  HnswIndex(const VectorSet& vs, const HnswParams& p,
            AddressSpace* space = nullptr);

  const HnswParams& params() const { return p_; }
  int max_level() const { return max_level_; }
  std::uint32_t entry_point() const { return entry_; }
  int max_m0() const { return 2 * p_.m; }
  int LevelOf(std::uint32_t v) const { return levels_[v]; }
  const std::vector<std::uint32_t>& Neighbors(std::uint32_t v,
                                              int level) const {
    return links_[v][static_cast<std::size_t>(level)];
  }

  // --- simulated layout (0 / empty when built without a space) ----------
  // Level-0 block: n fixed-stride lists, [count, slot0 .. slot(2m-1)],
  // 4 bytes per word, page-aligned so PMR pages stripe across cubes.
  Addr level0_base() const { return level0_base_; }
  Addr level0_end() const { return level0_end_; }
  Addr Level0CountAddr(std::uint32_t v) const {
    return level0_base_ + static_cast<Addr>(v) * Stride0Bytes();
  }
  Addr Level0SlotAddr(std::uint32_t v, int slot) const {
    return Level0CountAddr(v) + 4 + static_cast<Addr>(slot) * 4;
  }
  // Upper-level block: each vertex's level>=1 lists packed contiguously.
  Addr upper_base() const { return upper_base_; }
  Addr upper_end() const { return upper_end_; }
  Addr UpperSlotAddr(std::uint32_t v, int level, int slot) const;
  // Structure-segment lookup row a search loads to find v's lists.
  Addr OffsetEntryAddr(std::uint32_t v) const {
    return offsets_base_ + static_cast<Addr>(v) * 8;
  }

  // --- search -----------------------------------------------------------
  // One memory-touching step of a search, reported in algorithm order.
  struct SearchEvent {
    enum class Kind : std::uint8_t {
      kExpand,    // popped candidate u; loaded its list header at `addr`
      kNeighbor,  // examined neighbor v via list slot `addr` (+ distance)
      kClaim,     // visited-set check/claim of v; hit = first visit
      kImprove,   // candidate-set update for v; hit = entered the beam
    };
    Kind kind;
    int level = 0;
    std::uint32_t u = 0;  // expanded vertex (kExpand/kNeighbor)
    std::uint32_t v = 0;  // touched vertex (kNeighbor/kClaim/kImprove)
    Addr addr = 0;        // index-block address (kExpand/kNeighbor only)
    bool hit = false;
  };
  using SearchVisitor = std::function<void(const SearchEvent&)>;

  // k approximate nearest neighbors of `q`, nearest first. `ef` (clamped
  // up to k) is the level-0 beam width. Thread-safe: all search state is
  // local, the index is read-only after construction.
  std::vector<std::uint32_t> Search(const float* q, int k, int ef,
                                    const SearchVisitor& visit = {}) const;

 private:
  Addr Stride0Bytes() const {
    return 4 + static_cast<Addr>(max_m0()) * 4;  // count word + slots
  }
  int DrawLevel(std::uint32_t v) const;
  float Dist(const float* q, std::uint32_t v) const;
  // Beam search within one layer (build path; no visitor, no addresses).
  std::vector<std::pair<float, std::uint32_t>> SearchLayer(
      const float* q, std::uint32_t ep, int ef, int level) const;
  // Distance-diversity selection over (dist, id) candidates, best first;
  // each candidate's dist is its distance to the vertex being linked.
  std::vector<std::uint32_t> SelectNeighbors(
      std::vector<std::pair<float, std::uint32_t>> cands, int m) const;
  void Insert(std::uint32_t v);
  void Freeze(AddressSpace* space);

  const VectorSet& vs_;
  HnswParams p_;
  std::vector<int> levels_;
  // links_[v][level] = neighbor ids (level 0..LevelOf(v)).
  std::vector<std::vector<std::vector<std::uint32_t>>> links_;
  std::uint32_t entry_ = 0;
  int max_level_ = -1;

  Addr level0_base_ = 0, level0_end_ = 0;
  Addr upper_base_ = 0, upper_end_ = 0;
  Addr offsets_base_ = 0;
  // Slot offset of v's level-l (l>=1) list inside the upper block.
  std::vector<std::vector<std::uint64_t>> upper_off_;
};

// Mean recall@k of the index against brute force over `probes`
// value-derived query vectors (VectorSet::Query(qseed) for qseed in
// [0, probes)). The deterministic quality self-check reported by tools.
double SelfCheckRecall(const VectorSet& vs, const HnswIndex& index, int k,
                       int ef, int probes);

}  // namespace graphpim::graph

#endif  // GRAPHPIM_GRAPH_HNSW_INDEX_H_
