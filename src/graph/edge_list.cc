#include "graph/edge_list.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/log.h"

namespace graphpim::graph {

namespace {

// The largest vertex id a file may name: the vertex count, one above the
// largest id, must fit a VertexId.
constexpr std::uint32_t kMaxFileVertexId = std::numeric_limits<VertexId>::max() - 1;

// Parses all of `field` as a decimal integer in [0, max] into `v`.
bool ParseField(std::string_view field, std::uint32_t max, std::uint32_t* v) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *v);
  return ec == std::errc() && ptr == end && *v <= max;
}

}  // namespace

void WeightColumn::reserve(std::size_t n) {
  if (wide_.empty()) {
    narrow_.reserve(n);
  } else {
    wide_.reserve(n);
  }
}

void WeightColumn::Set(std::size_t i, std::uint32_t w) {
  if (wide_.empty() && w <= 0xff) {
    narrow_[i] = static_cast<std::uint8_t>(w);
    return;
  }
  if (wide_.empty()) Widen();
  wide_[i] = w;
}

void WeightColumn::Widen() {
  wide_.reserve(narrow_.capacity());
  wide_.assign(narrow_.begin(), narrow_.end());
  std::vector<std::uint8_t>().swap(narrow_);
}

EdgeList::EdgeList(VertexId num_vertices, std::initializer_list<Edge> edges)
    : num_vertices(num_vertices) {
  reserve(edges.size());
  for (const Edge& e : edges) push_back(e);
}

void EdgeList::reserve(std::size_t n) {
  src.reserve(n);
  dst.reserve(n);
  weight.reserve(n);
}

bool SaveEdgeList(const EdgeList& el, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "# vertices %u edges %zu\n", el.num_vertices,
                         el.size()) >= 0;
  for (std::size_t i = 0; ok && i < el.size(); ++i) {
    ok = std::fprintf(f, "%u %u %u\n", el.src[i], el.dst[i], el.weight[i]) >= 0;
  }
  // The close flushes the buffered tail, so it can fail too (a full disk).
  return std::fclose(f) == 0 && ok;
}

bool LoadEdgeList(const std::string& path, EdgeList* out) {
  GP_CHECK(out != nullptr);
  std::ifstream in(path);
  if (!in) return false;
  *out = EdgeList{};
  std::string line;
  for (std::uint64_t line_no = 1; std::getline(in, line); ++line_no) {
    // Up to four whitespace-separated fields; a fourth is always an error.
    std::istringstream words(line);
    std::string fields[4];
    std::size_t n = 0;
    while (n < 4 && words >> fields[n]) ++n;
    auto fail = [&](const auto&... what) {
      GP_THROW("edge list '", path, "' line ", line_no, ": ", what...);
    };
    // SaveEdgeList's "# vertices N edges M" header keeps the vertex count,
    // which isolated top vertices would otherwise lose.
    if (line_no == 1 && n >= 2 && fields[0] == "#" && fields[1] == "vertices") {
      std::uint32_t num_vertices = 0;
      if (!ParseField(fields[2], std::numeric_limits<VertexId>::max(), &num_vertices)) {
        fail("the header's vertex count '", fields[2], "' is not an integer in [0, ",
             std::numeric_limits<VertexId>::max(), "]");
      }
      out->num_vertices = num_vertices;
      continue;
    }
    if (n == 0 || fields[0].front() == '#') continue;
    if (n == 4) fail("unexpected fourth field '", fields[3], "'");
    if (n == 1) fail("no destination after the source '", fields[0], "'");
    Edge e;
    const char* const names[] = {"source", "destination", "weight"};
    std::uint32_t* const values[] = {&e.src, &e.dst, &e.weight};
    for (std::size_t f = 0; f < n; ++f) {
      const std::uint32_t max =
          f < 2 ? kMaxFileVertexId : std::numeric_limits<std::uint32_t>::max();
      if (!ParseField(fields[f], max, values[f])) {
        fail("the ", names[f], " '", fields[f], "' is not an integer in [0, ", max, "]");
      }
    }
    out->push_back(e);
    out->num_vertices = std::max({out->num_vertices, e.src + 1, e.dst + 1});
  }
  return !in.bad();
}

}  // namespace graphpim::graph
