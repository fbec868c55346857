#include "graph/csr.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "common/log.h"

namespace graphpim::graph {

namespace {

// Widest radix digit: one pass's 2^11 counters stay in L1 while it
// scatters.
constexpr unsigned kMaxDigitBits = 11;

// Sorts keys[0, len) by their low `key_bits` bits with stable LSD counting
// passes, ping-ponging through `tmp` (at least `len` long), and returns
// the buffer that ends up holding the sorted keys. The digit is no wider
// than bit_width(len), so a block of a few edges pays for a few counters
// per pass rather than 2^11. A pass whose digit is the same in every key
// is skipped.
std::uint64_t* SortKeys(std::uint64_t* keys, std::uint64_t* tmp, std::size_t len,
                        unsigned key_bits) {
  if (len < 2) return keys;
  const unsigned widest =
      std::min(kMaxDigitBits, static_cast<unsigned>(std::bit_width(len)));
  const unsigned passes = (key_bits + widest - 1) / widest;
  const unsigned digit_bits = (key_bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
  std::vector<std::size_t> count(mask + 1);
  for (unsigned shift = 0; shift < key_bits; shift += digit_bits) {
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t i = 0; i < len; ++i) ++count[(keys[i] >> shift) & mask];
    if (count[(keys[0] >> shift) & mask] == len) continue;
    std::size_t sum = 0;
    for (std::size_t& c : count) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < len; ++i) {
      tmp[count[(keys[i] >> shift) & mask]++] = keys[i];
    }
    std::swap(keys, tmp);
  }
  return keys;
}

// Steps 2-4 of the build (see CsrGraph::CsrGraph) into `neighbors` and
// `weights`, which it holds at the host weight width W. `offsets` holds
// the per-source prefix sums on entry and the final offsets on return;
// every weight fits `wbits` bits, and so W.
template <typename W>
void SortBlocks(const EdgeList& el, bool dedup, unsigned wbits,
                std::vector<EdgeId>& offsets, std::vector<VertexId>& neighbors,
                WeightColumn& weights) {
  const std::size_t n = el.num_vertices;
  const std::size_t m = el.size();
  // The slot (low << dbits | dst) must fit a VertexId, so the key
  // (slot << wbits | weight) always fits 64 bits; ten low bits make
  // 1024-source blocks.
  const auto dbits = static_cast<unsigned>(std::bit_width(el.num_vertices - 1));
  const unsigned lbits = std::min(10u, 32 - dbits);
  const std::size_t num_blocks = ((n - 1) >> lbits) + 1;

  std::vector<EdgeId> cursor(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) cursor[b] = offsets[b << lbits];
  neighbors.resize(m);
  VertexId* np = neighbors.data();
  W* wp = weights.Resize<W>(m);
  const VertexId low_mask = (VertexId{1} << lbits) - 1;
  const VertexId* src = el.src.data();
  const VertexId* dst = el.dst.data();
  el.weight.Visit([&](auto in) {
    for (std::size_t i = 0; i < m; ++i) {
      const EdgeId at = cursor[src[i] >> lbits]++;
      // 64-bit shift: dbits is 32 (and the low bits empty) past 2^31 vertices.
      np[at] = static_cast<VertexId>(std::uint64_t{src[i] & low_mask} << dbits) | dst[i];
      wp[at] = static_cast<W>(in[i]);
    }
  });

  const unsigned key_bits = lbits + dbits + wbits;
  const std::uint64_t dst_mask = (std::uint64_t{1} << dbits) - 1;
  const std::uint64_t weight_mask = (std::uint64_t{1} << wbits) - 1;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> tmp;
  std::vector<EdgeId> kept(std::size_t{low_mask} + 1);  // edges written per source
  EdgeId begin = 0;  // the block's first edge before dedup
  EdgeId out = 0;    // the next edge written
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t v0 = b << lbits;
    const std::size_t v1 = std::min(v0 + low_mask + 1, n);
    const EdgeId end = offsets[v1];
    const std::size_t len = end - begin;
    if (keys.size() < len) {
      keys.resize(len);
      tmp.resize(len);
    }
    for (std::size_t i = 0; i < len; ++i) {
      keys[i] = (std::uint64_t{np[begin + i]} << wbits) | wp[begin + i];
    }
    const std::uint64_t* sorted = SortKeys(keys.data(), tmp.data(), len, key_bits);
    // Parallel edges are adjacent with the smallest weight first, and dedup
    // keeps that one. Writes never pass the block's reads and the block is
    // already in the key buffer, so compacting in place is safe.
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t slot = sorted[i] >> wbits;
      if (dedup && i > 0 && slot == sorted[i - 1] >> wbits) continue;
      np[out] = static_cast<VertexId>(slot & dst_mask);
      wp[out] = static_cast<W>(sorted[i] & weight_mask);
      ++out;
      ++kept[slot >> dbits];
    }
    // offsets[v0] is already final, and offsets[v1] was read above.
    for (std::size_t v = v0; v < v1; ++v) {
      offsets[v + 1] = offsets[v] + std::exchange(kept[v - v0], 0);
    }
    begin = end;
  }
  neighbors.resize(out);
  weights.Resize<W>(out);
}

}  // namespace

// The build orders every source's edges by (dst, weight) without a
// per-source sort or a packed copy of the edges:
//   1. Count edges by source into the offsets, and find the widest weight.
//   2. Partition the edges by source block (2^lbits consecutive sources)
//      straight into neighbors_ and the host weight array the widest
//      weight chose. A block cursor array is small enough to stay cached,
//      unlike one cursor per source. The source's low lbits ride in the
//      neighbor slot above the dst bits.
//   3. Per block, sort 64-bit (low, dst, weight) keys with LSD counting
//      passes in two block-sized buffers reused across blocks; an ldbc
//      block's buffers fit in L2.
//   4. Write the keys back, dropping parallel edges when asked, and
//      rewrite the block's offsets.
// Blocks are in source order and `low` orders the sources inside a block,
// so the result is exactly a per-source sort by (dst, weight). The edge
// list, the neighbors and the weights are alive together in step 2, which
// is the build's peak; one-byte weights in the edge list and in the CSR
// are what lower it.
CsrGraph::CsrGraph(const EdgeList& el, AddressSpace& space, bool dedup)
    : num_vertices_(el.num_vertices) {
  GP_CHECK(num_vertices_ > 0, "empty graph");
  const std::size_t m = el.size();
  GP_CHECK(el.dst.size() == m && el.weight.size() == m,
           "edge list columns differ in length");

  offsets_.assign(std::size_t{num_vertices_} + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    GP_CHECK(el.src[i] < num_vertices_ && el.dst[i] < num_vertices_,
             "edge endpoint out of range");
    ++offsets_[el.src[i] + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::uint32_t weight_bits = 0;  // OR of all weights: same bit width as the max
  el.weight.Visit([&](auto w) {
    for (const std::uint32_t x : w) weight_bits |= x;
  });

  // The widest weight picks the host width, whatever the column's width.
  const auto wbits = static_cast<unsigned>(std::bit_width(weight_bits));
  if (wbits <= 8) {
    SortBlocks<std::uint8_t>(el, dedup, wbits, offsets_, neighbors_, weights_);
  } else {
    SortBlocks<std::uint32_t>(el, dedup, wbits, offsets_, neighbors_, weights_);
  }

  // The simulated layout keeps four bytes per weight at either host width.
  offsets_addr_ = space.structure().Allocate(offsets_.size() * sizeof(EdgeId));
  neighbors_addr_ = space.structure().Allocate(neighbors_.size() * sizeof(VertexId));
  weights_addr_ = space.structure().Allocate(num_edges() * sizeof(std::uint32_t));
}

std::uint64_t CsrGraph::StructureBytes() const {
  return offsets_.size() * sizeof(EdgeId) + neighbors_.size() * sizeof(VertexId) +
         num_edges() * sizeof(std::uint32_t);
}

std::uint64_t CsrGraph::HostBytes() const {
  return offsets_.size() * sizeof(EdgeId) + neighbors_.size() * sizeof(VertexId) +
         weights_.HostBytes();
}

}  // namespace graphpim::graph
