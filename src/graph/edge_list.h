// Edge lists: the exchange format between generators, I/O, and CSR build.
//
// An EdgeList keeps its edges in three columns, one entry per edge in
// each: four-byte source and destination ids and a WeightColumn. A
// generated edge (weight 1-16) takes 9 host bytes instead of the 12 of an
// Edge record. At a million vertices the list is alive beside the
// finished CSR arrays while the CSR is built, which is the paired run's
// memory peak (DESIGN.md §15).
#ifndef GRAPHPIM_GRAPH_EDGE_LIST_H_
#define GRAPHPIM_GRAPH_EDGE_LIST_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace graphpim::graph {

// One edge, as a value: what code adds to an EdgeList or reads back.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  std::uint32_t weight = 1;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
  }
};

// Edge weights at the host width their values need: one byte each while
// every weight fits in eight bits, four bytes each once one does not.
// push_back and Set widen a column when a weight needs it and never
// narrow it back; an empty column is narrow. EdgeList and CsrGraph both
// hold their weights in one.
class WeightColumn {
 public:
  std::size_t size() const { return wide_.empty() ? narrow_.size() : wide_.size(); }

  std::uint32_t operator[](std::size_t i) const {
    return wide_.empty() ? narrow_[i] : wide_[i];
  }

  // Bytes the weights take on the host: one or four per weight.
  std::uint64_t HostBytes() const {
    return narrow_.size() + wide_.size() * sizeof(std::uint32_t);
  }

  void reserve(std::size_t n);

  // Appends `w`, widening the column first if `w` needs more than eight
  // bits.
  void push_back(std::uint32_t w) {
    if (wide_.empty() && w <= 0xff) {
      narrow_.push_back(static_cast<std::uint8_t>(w));
      return;
    }
    if (wide_.empty()) Widen();
    wide_.push_back(w);
  }

  // Sets weight `i` to `w`, widening the column first if `w` needs more
  // than eight bits.
  void Set(std::size_t i, std::uint32_t w);

  // Calls `f` once with the weights as a std::span<const W>, where W is
  // the host width: std::uint8_t or std::uint32_t.
  template <typename F>
  void Visit(F&& f) const {
    if (wide_.empty()) {
      f(std::span<const std::uint8_t>(narrow_));
    } else {
      f(std::span<const std::uint32_t>(wide_));
    }
  }

  // Makes the column `n` weights of width W (std::uint8_t or
  // std::uint32_t) and returns them for the caller to fill. Weights held
  // at width W are kept up to `n`; a column of the other width is
  // emptied first. Every weight written must fit in W.
  template <typename W>
  W* Resize(std::size_t n) {
    static_assert(std::is_same_v<W, std::uint8_t> || std::is_same_v<W, std::uint32_t>);
    if constexpr (std::is_same_v<W, std::uint8_t>) {
      std::vector<std::uint32_t>().swap(wide_);
      narrow_.resize(n);
      return narrow_.data();
    } else {
      std::vector<std::uint8_t>().swap(narrow_);
      wide_.resize(n);
      return wide_.data();
    }
  }

  // Equal when both hold the same weights at the same width.
  friend bool operator==(const WeightColumn&, const WeightColumn&) = default;

 private:
  // Moves the weights to wide_ and reserves narrow_'s capacity there, so
  // a column reserved exactly is not reallocated by the push that widens
  // it.
  void Widen();

  std::vector<std::uint8_t> narrow_;  // the weights while the column is narrow
  std::vector<std::uint32_t> wide_;   // the weights once it is wide
};

struct EdgeList {
  EdgeList() = default;
  EdgeList(VertexId num_vertices, std::initializer_list<Edge> edges);

  std::size_t size() const { return src.size(); }
  Edge operator[](std::size_t i) const { return {src[i], dst[i], weight[i]}; }

  // Bytes the three columns take on the host: 9 per edge while the
  // weights fit one byte, 12 once they do not.
  std::uint64_t HostBytes() const {
    return (src.size() + dst.size()) * sizeof(VertexId) + weight.HostBytes();
  }

  void reserve(std::size_t n);

  void push_back(const Edge& e) {
    src.push_back(e.src);
    dst.push_back(e.dst);
    weight.push_back(e.weight);
  }

  friend bool operator==(const EdgeList&, const EdgeList&) = default;

  VertexId num_vertices = 0;
  // The columns, one entry per edge in each; edge i is
  // (src[i], dst[i], weight[i]).
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  WeightColumn weight;
};

// Plain-text edge-list I/O ("src dst [weight]" per line, '#' comments).
// SaveEdgeList writes a "# vertices N edges M" header first, and
// LoadEdgeList sets num_vertices to the larger of that N and the largest
// id + 1. Both return false when the file cannot be opened, SaveEdgeList
// also when a write or the close fails, and LoadEdgeList also when reading
// fails. LoadEdgeList throws a SimError naming the file and the 1-based
// line of the first line that is not a comment, a blank line or two or
// three decimal fields: vertex ids below 2^32 - 1 (so the vertex count
// fits 32 bits) and a weight below 2^32. A header whose N is not an
// integer below 2^32 is a SimError on line 1.
bool SaveEdgeList(const EdgeList& el, const std::string& path);
bool LoadEdgeList(const std::string& path, EdgeList* out);

}  // namespace graphpim::graph

#endif  // GRAPHPIM_GRAPH_EDGE_LIST_H_
