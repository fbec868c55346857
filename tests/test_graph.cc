// Tests for the graph framework: generators, CSR, regions, properties, I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/log.h"
#include "common/random.h"
#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/generator.h"
#include "graph/property.h"
#include "graph/region.h"

namespace graphpim::graph {
namespace {

TEST(Region, BumpAllocatesAligned) {
  Region r(0x1000, 4096);
  Addr a = r.Allocate(10, 64);
  Addr b = r.Allocate(10, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  EXPECT_EQ(r.used_bytes(), b + 10 - 0x1000);
}

TEST(Region, ResetReclaims) {
  Region r(0, 4096);
  r.Allocate(1000);
  r.Reset();
  EXPECT_EQ(r.used_bytes(), 0u);
}

TEST(AddressSpace, SegmentsDisjointAndClassified) {
  AddressSpace space;
  Addr m = space.meta().Allocate(64);
  Addr s = space.structure().Allocate(64);
  Addr p = space.PmrMalloc(64);
  EXPECT_EQ(space.ComponentOf(m), DataComponent::kMeta);
  EXPECT_EQ(space.ComponentOf(s), DataComponent::kStructure);
  EXPECT_EQ(space.ComponentOf(p), DataComponent::kProperty);
  EXPECT_GE(p, space.pmr_base());
  EXPECT_LT(p, space.pmr_end());
}

TEST(PropertyArray, StrideSeparatesVertices) {
  AddressSpace space;
  PropertyArray<std::int64_t> prop(space.pmr(), 100, -1);
  EXPECT_EQ(prop.stride(), kVertexPropertyStride);
  EXPECT_EQ(prop.AddrOf(1) - prop.AddrOf(0), kVertexPropertyStride);
  EXPECT_EQ(prop[5], -1);
  prop[5] = 9;
  EXPECT_EQ(prop[5], 9);
  // No two vertices share a cache line under the default stride.
  EXPECT_NE(prop.AddrOf(0) / 64, prop.AddrOf(1) / 64);
}

TEST(PropertyArray, PackedStrideOption) {
  AddressSpace space;
  PropertyArray<double> packed(space.meta(), 16, 0.0, sizeof(double));
  EXPECT_EQ(packed.AddrOf(1) - packed.AddrOf(0), sizeof(double));
}

TEST(Generator, Deterministic) {
  RmatParams p;
  p.num_vertices = 1024;
  p.avg_degree = 8;
  EdgeList a = GenerateRmat(p);
  EdgeList b = GenerateRmat(p);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
}

TEST(Generator, SeedChangesGraph) {
  RmatParams p;
  p.num_vertices = 1024;
  p.avg_degree = 8;
  EdgeList a = GenerateRmat(p);
  p.seed = 99;
  EdgeList b = GenerateRmat(p);
  EXPECT_FALSE(a == b);
}

TEST(Generator, TargetEdgeCountAndNoSelfLoops) {
  RmatParams p;
  p.num_vertices = 2048;
  p.avg_degree = 10;
  EdgeList el = GenerateRmat(p);
  EXPECT_EQ(el.num_vertices, 2048u);
  EXPECT_EQ(el.size(), 20480u);
  for (std::size_t i = 0; i < el.size(); ++i) {
    const Edge e = el[i];
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, el.num_vertices);
    EXPECT_LT(e.dst, el.num_vertices);
    EXPECT_GE(e.weight, 1u);
    EXPECT_LE(e.weight, p.max_weight);
  }
}

TEST(Generator, DegreeCapHolds) {
  RmatParams p;
  p.num_vertices = 4096;
  p.avg_degree = 8;
  p.max_degree_factor = 4.0;  // cap = 32
  EdgeList el = GenerateRmat(p);
  std::vector<std::uint32_t> in(el.num_vertices, 0);
  std::vector<std::uint32_t> out(el.num_vertices, 0);
  for (std::size_t i = 0; i < el.size(); ++i) {
    ++out[el.src[i]];
    ++in[el.dst[i]];
  }
  for (VertexId v = 0; v < el.num_vertices; ++v) {
    EXPECT_LE(in[v], 33u);
    EXPECT_LE(out[v], 33u);
  }
}

TEST(Generator, SkewedDegreesVsUniform) {
  RmatParams p;
  p.num_vertices = 8192;
  p.avg_degree = 16;
  p.max_degree_factor = 16.0;
  EdgeList rmat = GenerateRmat(p);
  EdgeList uni = GenerateUniform(8192, 16, 1);
  auto max_out = [](const EdgeList& el) {
    std::vector<std::uint32_t> out(el.num_vertices, 0);
    for (const VertexId src : el.src) ++out[src];
    return *std::max_element(out.begin(), out.end());
  };
  EXPECT_GT(max_out(rmat), 2 * max_out(uni));
}

TEST(Generator, Profiles) {
  EdgeList ldbc = GenerateProfile("ldbc", 1024, 1);
  EXPECT_NEAR(static_cast<double>(ldbc.size()) / ldbc.num_vertices, 28.8, 0.1);
  EdgeList btc = GenerateProfile("bitcoin", 1024, 1);
  EXPECT_NEAR(static_cast<double>(btc.size()) / btc.num_vertices, 2.5, 0.1);
  EdgeList tw = GenerateProfile("twitter", 1024, 1);
  EXPECT_NEAR(static_cast<double>(tw.size()) / tw.num_vertices, 7.7, 0.1);
}

TEST(Generator, LdbcNames) {
  EXPECT_EQ(LdbcSizeFromName("ldbc-1k"), 1024u);
  EXPECT_EQ(LdbcSizeFromName("ldbc-10k"), 10u * 1024);
  EXPECT_EQ(LdbcSizeFromName("ldbc-100k"), 100u * 1024);
  EXPECT_EQ(LdbcSizeFromName("ldbc-1m"), 1024u * 1024);
}

TEST(Generator, RejectsVertexCountsItCannotBuild) {
  // One vertex has only self-loops, which the draw loop drops forever;
  // past 2^31 no 32-bit power of two is left to round up to.
  for (const VertexId n :
       {0u, 1u, (1u << 31) + 1, std::numeric_limits<VertexId>::max()}) {
    try {
      GenerateProfile("ldbc", n, 1);
      ADD_FAILURE() << n << " vertices should not generate";
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find("vertices"), std::string::npos) << e.message();
    }
  }
  EXPECT_EQ(GenerateProfile("ldbc", 2, 1).num_vertices, 2u);
}

// A 64-bit FNV-1a hash of every edge's src, dst and weight, each as a
// little-endian uint32, in edge order.
std::uint64_t EdgeHash(const EdgeList& el) {
  std::uint64_t h = 0xcbf29ce484222325;
  auto mix = [&h](std::uint32_t v) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3;
    }
  };
  for (std::size_t i = 0; i < el.size(); ++i) {
    const Edge e = el[i];
    mix(e.src);
    mix(e.dst);
    mix(e.weight);
  }
  return h;
}

// The generators' draw order and id shuffle fix every generated graph, and
// through them every golden; a change to either must show here first.
TEST(Generator, OutputIsPinned) {
  struct Pin {
    const char* profile;
    std::size_t edges;
    std::uint64_t hash;
  };
  for (const Pin& pin : {Pin{"ldbc", 117965, 0x8583a745bbc42244},
                         Pin{"bitcoin", 10240, 0xe3005df1b56ed186},
                         Pin{"twitter", 31539, 0x9d11d0d14a4b8b35}}) {
    SCOPED_TRACE(pin.profile);
    const EdgeList el = GenerateProfile(pin.profile, 4096, 1);
    EXPECT_EQ(el.size(), pin.edges);
    EXPECT_EQ(EdgeHash(el), pin.hash);
  }
  const EdgeList uni = GenerateUniform(4096, 16, 1);
  EXPECT_EQ(uni.size(), 65536u);
  EXPECT_EQ(EdgeHash(uni), 0x1d33cfc4eef3a1d9u);
}

TEST(Csr, BuildsOffsetsAndSortedNeighbors) {
  EdgeList el(4, {{0, 2, 5}, {0, 1, 3}, {2, 3, 1}, {0, 3, 2}});
  AddressSpace space;
  CsrGraph g(el, space);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 3u);
  EXPECT_EQ(g.OutDegree(1), 0u);
  EXPECT_EQ(g.OutDegree(2), 1u);
  auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 3u);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
  // Weights follow their edges through the sort.
  const EdgeId e0 = g.OffsetOf(0);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(g.Weight(e0), 3u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.Weight(e0 + 1), 5u);
}

TEST(Csr, DedupKeepsFirstWeight) {
  EdgeList el(3, {{0, 1, 7}, {0, 1, 9}, {0, 2, 1}});
  AddressSpace space;
  CsrGraph g(el, space, /*dedup=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.Weight(g.OffsetOf(0)), 7u);

  // "First" in sorted order: the smallest weight wins, whatever the input
  // order.
  el = EdgeList(3, {{0, 1, 9}, {0, 1, 7}, {0, 2, 1}});
  AddressSpace space2;
  CsrGraph r(el, space2, /*dedup=*/true);
  ASSERT_EQ(r.OutDegree(0), 2u);
  EXPECT_EQ(r.Neighbors(0)[0], 1u);
  EXPECT_EQ(r.Weight(r.OffsetOf(0)), 7u);
}

// The CSR build must reproduce the per-source sort it replaced, byte for
// byte: scatter the edges by source, then sort each source's
// (dst << 32 | weight) words; dedup keeps the first word of each
// destination. The reference frees its cursor array early and rewrites
// its offsets in place so the 2^24-vertex case stays near two offset
// arrays.
struct ReferenceCsr {
  std::vector<EdgeId> offsets;
  std::vector<VertexId> neighbors;
  std::vector<std::uint32_t> weights;
};

ReferenceCsr BuildReferenceCsr(const EdgeList& el, bool dedup) {
  const std::size_t n = el.num_vertices;
  ReferenceCsr r;
  r.offsets.assign(n + 1, 0);
  for (const VertexId src : el.src) ++r.offsets[src + 1];
  std::partial_sum(r.offsets.begin(), r.offsets.end(), r.offsets.begin());
  std::vector<std::uint64_t> packed(el.size());
  {
    std::vector<EdgeId> cursor(r.offsets.begin(), r.offsets.end() - 1);
    for (std::size_t i = 0; i < el.size(); ++i) {
      const Edge e = el[i];
      packed[cursor[e.src]++] = (std::uint64_t{e.dst} << 32) | e.weight;
    }
  }
  EdgeId begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const EdgeId end = r.offsets[v + 1];
    std::sort(packed.begin() + begin, packed.begin() + end);
    for (EdgeId i = begin; i < end; ++i) {
      if (dedup && i > begin && (packed[i] >> 32) == (packed[i - 1] >> 32)) continue;
      r.neighbors.push_back(static_cast<VertexId>(packed[i] >> 32));
      r.weights.push_back(static_cast<std::uint32_t>(packed[i]));
    }
    r.offsets[v + 1] = r.neighbors.size();
    begin = end;
  }
  return r;
}

// Builds the CSR with and without dedup and checks offsets, neighbors and
// weights against the reference.
void ExpectMatchesReference(const EdgeList& el) {
  for (const bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "dedup" : "no dedup");
    const ReferenceCsr ref = BuildReferenceCsr(el, dedup);
    AddressSpace space;
    const CsrGraph g(el, space, dedup);
    ASSERT_EQ(g.num_vertices(), el.num_vertices);
    ASSERT_EQ(g.num_edges(), ref.neighbors.size());
    std::size_t bad_offsets = 0;
    std::vector<VertexId> neighbors;
    std::vector<std::uint32_t> weights;
    neighbors.reserve(g.num_edges());
    weights.reserve(g.num_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      bad_offsets += g.OffsetOf(v) != ref.offsets[v];
      const auto nb = g.Neighbors(v);
      neighbors.insert(neighbors.end(), nb.begin(), nb.end());
      for (EdgeId e = g.OffsetOf(v); e < g.OffsetOf(v) + nb.size(); ++e) {
        weights.push_back(g.Weight(e));
      }
    }
    EXPECT_EQ(bad_offsets, 0u);
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not print the arrays.
    EXPECT_TRUE(neighbors == ref.neighbors);
    EXPECT_TRUE(weights == ref.weights);
  }
}

// `count` random edges on `n` vertices: sources below `src_limit`,
// destinations below `dst_limit`, weights drawn by `weight`.
template <typename WeightFn>
EdgeList RandomEdges(VertexId n, std::size_t count, std::uint64_t seed,
                     VertexId src_limit, VertexId dst_limit, WeightFn weight) {
  Rng rng(seed);
  EdgeList el;
  el.num_vertices = n;
  el.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(src_limit));
    const auto dst = static_cast<VertexId>(rng.NextBounded(dst_limit));
    el.push_back(Edge{src, dst, weight(rng)});
  }
  return el;
}

std::uint32_t AnyU32(Rng& rng) { return static_cast<std::uint32_t>(rng.Next()); }

TEST(CsrReference, WeightsAcrossTheU32Range) {
  EdgeList el = RandomEdges(3000, 60000, 11, 3000, 3000, AnyU32);
  // The extremes, on a parallel pair so dedup must order them.
  el.push_back({5, 9, std::numeric_limits<std::uint32_t>::max()});
  el.push_back({5, 9, 0});
  el.push_back({5, 9, 1u << 31});
  ExpectMatchesReference(el);
}

TEST(CsrReference, DuplicateHeavyEdges) {
  // 40 sources x 8 destinations: most edges are parallel, some repeat the
  // weight too.
  ExpectMatchesReference(RandomEdges(64, 20000, 12, 40, 8, [](Rng& rng) {
    return static_cast<std::uint32_t>(1 + rng.NextBounded(50));
  }));
}

TEST(CsrReference, StarSource) {
  // One source holds 100k edges, so its block outgrows every other block.
  EdgeList el = RandomEdges(5000, 100000, 13, 1, 5000, [](Rng& rng) {
    return static_cast<std::uint32_t>(1 + rng.NextBounded(16));
  });
  std::fill(el.src.begin(), el.src.end(), 1234);
  const EdgeList rest = RandomEdges(5000, 20000, 14, 5000, 5000, AnyU32);
  for (std::size_t i = 0; i < rest.size(); ++i) el.push_back(rest[i]);
  ExpectMatchesReference(el);
}

TEST(CsrReference, OneVertexWithOnlySelfLoops) {
  EdgeList el(1, {{0, 0, 5}, {0, 0, 2}, {0, 0, 5}, {0, 0, 0}, {0, 0, 4000000000u}});
  ExpectMatchesReference(el);
}

TEST(CsrReference, NoEdges) {
  EdgeList el;
  el.num_vertices = 7;
  ExpectMatchesReference(el);
}

TEST(CsrReference, WideVertexIdsAndWeights) {
  // 24 dst bits leave 8 low source bits in the neighbor slot, and the
  // 32 weight bits fill the rest of the 64-bit key.
  constexpr VertexId kVertices = (1u << 24) - 1;
  EdgeList el = RandomEdges(kVertices, 50000, 15, kVertices, kVertices, AnyU32);
  el.push_back({kVertices - 1, kVertices - 1, 7});
  el.push_back({kVertices - 1, kVertices - 1, 3});
  el.push_back({0, kVertices - 1, std::numeric_limits<std::uint32_t>::max()});
  ExpectMatchesReference(el);
}

TEST(CsrReference, GeneratorProfiles) {
  for (const char* profile : {"ldbc", "bitcoin", "twitter"}) {
    for (const VertexId n : {1024u, 3000u, 65536u}) {
      SCOPED_TRACE(std::string(profile) + " " + std::to_string(n));
      ExpectMatchesReference(GenerateProfile(profile, n, 3));
    }
  }
}

TEST(Csr, StructureAddressesInStructureSegment) {
  EdgeList el = GenerateUniform(64, 4, 3);
  AddressSpace space;
  CsrGraph g(el, space);
  EXPECT_EQ(space.ComponentOf(g.OffsetAddr(0)), DataComponent::kStructure);
  EXPECT_EQ(space.ComponentOf(g.NeighborAddr(0)), DataComponent::kStructure);
  EXPECT_EQ(space.ComponentOf(g.WeightAddr(0)), DataComponent::kStructure);
  EXPECT_GT(g.StructureBytes(), 0u);
}

// Generated weights are 1-16, so the host copy holds one byte per weight;
// the simulated layout still spends four, at the same addresses.
TEST(Csr, GeneratedWeightsTakeOneHostByte) {
  for (const char* profile : {"ldbc", "bitcoin", "twitter"}) {
    SCOPED_TRACE(profile);
    AddressSpace space;
    const CsrGraph g(GenerateProfile(profile, 4096, 3), space);
    const std::uint64_t n = g.num_vertices();
    const std::uint64_t m = g.num_edges();
    ASSERT_GT(m, 1u);
    const std::uint64_t rows = (n + 1) * sizeof(EdgeId) + m * sizeof(VertexId);
    EXPECT_EQ(g.HostBytes(), rows + m);
    EXPECT_EQ(g.StructureBytes(), rows + m * sizeof(std::uint32_t));
    EXPECT_EQ(g.WeightAddr(m - 1) - g.WeightAddr(0), (m - 1) * sizeof(std::uint32_t));
    // The weights are the last structure array the build allocates.
    EXPECT_EQ(space.structure().base() + space.structure().used_bytes(),
              g.WeightAddr(0) + m * sizeof(std::uint32_t));
  }
}

// One weight above eight bits puts every weight on four host bytes, and
// each still reads back exactly.
TEST(Csr, WideWeightsKeepFourBytes) {
  EdgeList el(3, {{0, 1, 7}, {0, 2, 256}, {1, 2, 255}, {2, 0, 1}});
  AddressSpace space;
  const CsrGraph g(el, space);
  ASSERT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.HostBytes(), g.StructureBytes());
  const std::uint32_t want[] = {7, 256, 255, 1};
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(g.Weight(e), want[e]);

  el.weight.Set(1, 200);
  AddressSpace narrow_space;
  const CsrGraph narrow(el, narrow_space);
  EXPECT_EQ(narrow.HostBytes() + 3 * narrow.num_edges(), narrow.StructureBytes());
  EXPECT_EQ(narrow.Weight(1), 200u);
  EXPECT_EQ(narrow.WeightAddr(1), g.WeightAddr(1));
}

TEST(Csr, EdgeIdsMatchOffsets) {
  EdgeList el = GenerateUniform(128, 8, 5);
  AddressSpace space;
  CsrGraph g(el, space);
  EdgeId total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.OffsetOf(v), total);
    total += g.OutDegree(v);
  }
  EXPECT_EQ(total, g.num_edges());
}

// Generated weights are 1-16, so every generated edge takes four bytes per
// id and one for its weight.
TEST(EdgeList, GeneratedEdgesTakeNineBytes) {
  for (const char* profile : {"ldbc", "bitcoin", "twitter"}) {
    SCOPED_TRACE(profile);
    const EdgeList el = GenerateProfile(profile, 4096, 3);
    ASSERT_GT(el.size(), 0u);
    EXPECT_EQ(el.HostBytes(), 9 * el.size());
  }
  const EdgeList uni = GenerateUniform(4096, 16, 3);
  EXPECT_EQ(uni.HostBytes(), 9 * uni.size());
}

// One weight above eight bits puts every weight of the list on four host
// bytes, and each still reads back exactly.
TEST(EdgeList, OneWideWeightWidensTheColumn) {
  const std::vector<std::vector<std::uint32_t>> lists = {{7, 256, 255, 1},
                                                         {4000000000u, 7, 255, 1}};
  for (const std::vector<std::uint32_t>& weights : lists) {
    SCOPED_TRACE(weights.front());
    EdgeList el;
    el.num_vertices = 2;
    for (const std::uint32_t w : weights) el.push_back({0, 1, w});
    ASSERT_EQ(el.size(), weights.size());
    EXPECT_EQ(el.weight.HostBytes(), weights.size() * sizeof(std::uint32_t));
    EXPECT_EQ(el.HostBytes(), 12 * el.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      EXPECT_TRUE(el[i] == (Edge{0, 1, weights[i]})) << i;
    }
  }
}

TEST(EdgeListIo, RoundTrip) {
  EdgeList el(5, {{0, 1, 2}, {3, 4, 7}, {2, 0, 1}});
  std::string path = ::testing::TempDir() + "/graphpim_el_test.txt";
  ASSERT_TRUE(SaveEdgeList(el, path));
  EdgeList in;
  ASSERT_TRUE(LoadEdgeList(path, &in));
  ASSERT_EQ(in.size(), el.size());
  EXPECT_EQ(in.num_vertices, 5u);
  EXPECT_TRUE(in == el);
  std::remove(path.c_str());
}

// A full disk fails the buffered writes at the close; a missing directory
// fails the open. Neither reports success.
TEST(EdgeListIo, SaveReportsWriteErrors) {
  const EdgeList el(5, {{0, 1, 2}});
  EXPECT_FALSE(SaveEdgeList(el, "/dev/full"));
  EXPECT_FALSE(SaveEdgeList(el, "/nonexistent/path/x.el"));
}

TEST(EdgeListIo, LoadMissingFileFails) {
  EdgeList el;
  EXPECT_FALSE(LoadEdgeList("/nonexistent/path/x.el", &el));
}

TEST(EdgeListIo, WideWeightsRoundTrip) {
  const EdgeList el(3, {{0, 1, 0}, {2, 0, 4000000000u}});
  const std::string path = ::testing::TempDir() + "/graphpim_el_wide.txt";
  ASSERT_TRUE(SaveEdgeList(el, path));
  EdgeList in;
  ASSERT_TRUE(LoadEdgeList(path, &in));
  EXPECT_TRUE(in == el);
  EXPECT_EQ(in.weight[0], 0u);
  EXPECT_EQ(in.weight[1], 4000000000u);
  EXPECT_EQ(in.weight.HostBytes(), 2 * sizeof(std::uint32_t));
  std::remove(path.c_str());
}

// Writes `text` to the temporary edge-list file `name` and returns its
// path. CTest runs tests in parallel processes, so each test uses its own.
std::string WriteEdgeFile(const std::string& text,
                          const std::string& name = "graphpim_el_bad.txt") {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  return path;
}

// The header keeps the vertex count: vertices 2-4 have no edge, so the
// largest id + 1 alone would load a two-vertex list.
TEST(EdgeListIo, RoundTripKeepsIsolatedVertices) {
  const EdgeList el(5, {{0, 1, 2}});
  const std::string path = ::testing::TempDir() + "/graphpim_el_isolated.txt";
  ASSERT_TRUE(SaveEdgeList(el, path));
  EdgeList in;
  ASSERT_TRUE(LoadEdgeList(path, &in));
  EXPECT_EQ(in.num_vertices, 5u);
  EXPECT_TRUE(in == el);
  std::remove(path.c_str());

  // A header count below the largest id + 1 does not shrink the list.
  const std::string small =
      WriteEdgeFile("# vertices 2 edges 1\n0 4 1\n", "graphpim_el_small.txt");
  ASSERT_TRUE(LoadEdgeList(small, &in));
  EXPECT_EQ(in.num_vertices, 5u);
  std::remove(small.c_str());
}

// Every malformed line is a SimError naming the file and the 1-based
// line; none loads as a wrapped or truncated value, and none exits.
TEST(EdgeListIo, RejectsMalformedLines) {
  const struct {
    const char* text;
    const char* line;
  } cases[] = {
      {"0 1 2\n-1 2 3\n", "line 2"},         // a negative source
      {"0 4294967295 1\n", "line 1"},         // the vertex count would wrap
      {"# c\n\n0 1 99999999999\n", "line 3"},  // a weight above 32 bits
      {"0 1 2 junk\n", "line 1"},             // a fourth field
      {"0 x\n", "line 1"},                    // not a number
      {"0 1 2\n7\n", "line 2"},               // no destination
      {"0 1 2x\n", "line 1"},                 // trailing bytes in a field
      {"# vertices x edges 1\n0 1\n", "line 1"},           // a header count that is no number
      {"# vertices -1 edges 0\n", "line 1"},                // a negative header count
      {"# vertices 4294967296 edges 0\n0 1\n", "line 1"},  // a header count above 32 bits
      {"# vertices\n", "line 1"},                           // a header without its count
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    const std::string path = WriteEdgeFile(c.text);
    EdgeList el;
    try {
      LoadEdgeList(path, &el);
      ADD_FAILURE() << "loaded " << el.size() << " edges";
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find(path), std::string::npos) << e.message();
      EXPECT_NE(e.message().find(c.line), std::string::npos) << e.message();
    }
    std::remove(path.c_str());
  }

  // Long lines are read whole. A reader with a 256-byte line buffer would
  // take this comment's tail for an edge 7 -> 8 and split the padded edge
  // line from its weight. The largest vertex id is accepted.
  const std::string path =
      WriteEdgeFile("#" + std::string(254, 'x') + "7 8 9\n0 1" + std::string(300, ' ') +
                    "5\n\t0 4294967294\r\n");
  EdgeList el;
  ASSERT_TRUE(LoadEdgeList(path, &el));
  EXPECT_TRUE(el == EdgeList(4294967295u, {{0, 1, 5}, {0, 4294967294u, 1}}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphpim::graph
