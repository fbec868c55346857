#include "graph/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/log.h"
#include "common/random.h"

namespace graphpim::graph {

namespace {

constexpr std::uint64_t kLevelStream = 0x686e7377'4c'564cULL;  // "hnsw LVL"

// Hierarchy height stays O(log n) in expectation; the cap only guards the
// astronomically unlikely tail draw.
constexpr int kMaxLevel = 24;

using Cand = std::pair<float, std::uint32_t>;  // (distance, id); id breaks ties

}  // namespace

HnswIndex::HnswIndex(const VectorSet& vs, const HnswParams& p,
                     AddressSpace* space)
    : vs_(vs), p_(p) {
  GP_CHECK(p.m >= 2, "hnsw needs m >= 2");
  GP_CHECK(p.ef_construction >= 1, "hnsw needs ef_construction >= 1");
  const std::uint32_t n = vs.size();
  levels_.resize(n);
  links_.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) levels_[v] = DrawLevel(v);
  for (std::uint32_t v = 0; v < n; ++v) Insert(v);
  if (space != nullptr) Freeze(space);
}

int HnswIndex::DrawLevel(std::uint32_t v) const {
  // Exponential level assignment, value-derived: level(v) is a pure hash
  // of (seed, v), so insertion order and platform cannot change the
  // hierarchy. mult = 1/ln(m) is the standard normalization.
  const std::uint64_t stream_seed = SplitMix64(p_.seed ^ kLevelStream).Next();
  const std::uint64_t h =
      SplitMix64(stream_seed ^ (static_cast<std::uint64_t>(v) *
                                0x9e3779b97f4a7c15ULL))
          .Next();
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double mult = 1.0 / std::log(static_cast<double>(p_.m));
  const int level = static_cast<int>(-std::log(1.0 - u) * mult);
  return level < kMaxLevel ? level : kMaxLevel;
}

float HnswIndex::Dist(const float* q, std::uint32_t v) const {
  return VectorSet::Dist2(q, vs_.Vector(v), vs_.dim());
}

std::vector<Cand> HnswIndex::SearchLayer(const float* q, std::uint32_t ep,
                                         int ef, int level) const {
  std::vector<char> visited(vs_.size(), 0);
  std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> cands;
  std::priority_queue<Cand> best;  // worst of the beam on top
  const float dep = Dist(q, ep);
  visited[ep] = 1;
  cands.push({dep, ep});
  best.push({dep, ep});
  while (!cands.empty()) {
    const Cand c = cands.top();
    if (c.first > best.top().first &&
        best.size() >= static_cast<std::size_t>(ef)) {
      break;
    }
    cands.pop();
    for (std::uint32_t v : links_[c.second][static_cast<std::size_t>(level)]) {
      if (visited[v]) continue;
      visited[v] = 1;
      const float d = Dist(q, v);
      if (best.size() < static_cast<std::size_t>(ef) ||
          d < best.top().first) {
        cands.push({d, v});
        best.push({d, v});
        if (best.size() > static_cast<std::size_t>(ef)) best.pop();
      }
    }
  }
  std::vector<Cand> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> HnswIndex::SelectNeighbors(std::vector<Cand> cands,
                                                      int m) const {
  std::sort(cands.begin(), cands.end());
  std::vector<std::uint32_t> kept;
  std::vector<Cand> pruned;
  for (const Cand& c : cands) {
    if (kept.size() >= static_cast<std::size_t>(m)) break;
    // Distance-diversity heuristic: keep c only if it is closer to the
    // query than to every neighbor already kept, so the kept set spans
    // directions instead of crowding one cluster.
    bool good = true;
    for (std::uint32_t s : kept) {
      if (VectorSet::Dist2(vs_.Vector(c.second), vs_.Vector(s), vs_.dim()) <
          c.first) {
        good = false;
        break;
      }
    }
    if (good) {
      kept.push_back(c.second);
    } else {
      pruned.push_back(c);
    }
  }
  // Back-fill with the nearest pruned candidates: an under-filled list
  // costs recall more than the lost diversity.
  for (const Cand& c : pruned) {
    if (kept.size() >= static_cast<std::size_t>(m)) break;
    kept.push_back(c.second);
  }
  return kept;
}

void HnswIndex::Insert(std::uint32_t v) {
  const int l = levels_[v];
  links_[v].resize(static_cast<std::size_t>(l) + 1);
  if (max_level_ < 0) {  // first element seeds the hierarchy
    entry_ = v;
    max_level_ = l;
    return;
  }
  const float* q = vs_.Vector(v);
  std::uint32_t ep = entry_;
  float dep = Dist(q, ep);
  // Greedy descent through the layers above v's level.
  for (int lc = max_level_; lc > l; --lc) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t nb : links_[ep][static_cast<std::size_t>(lc)]) {
        const float d = Dist(q, nb);
        if (d < dep) {
          dep = d;
          ep = nb;
          changed = true;
        }
      }
    }
  }
  // Beam search + bidirectional linking on every layer v participates in.
  for (int lc = std::min(l, max_level_); lc >= 0; --lc) {
    std::vector<Cand> w = SearchLayer(q, ep, p_.ef_construction, lc);
    const int cap = lc == 0 ? max_m0() : p_.m;
    links_[v][static_cast<std::size_t>(lc)] = SelectNeighbors(w, cap);
    for (std::uint32_t s : links_[v][static_cast<std::size_t>(lc)]) {
      std::vector<std::uint32_t>& ls = links_[s][static_cast<std::size_t>(lc)];
      ls.push_back(v);
      if (ls.size() > static_cast<std::size_t>(cap)) {
        std::vector<Cand> cs;
        cs.reserve(ls.size());
        for (std::uint32_t x : ls) {
          cs.push_back({VectorSet::Dist2(vs_.Vector(s), vs_.Vector(x),
                                         vs_.dim()),
                        x});
        }
        ls = SelectNeighbors(std::move(cs), cap);
      }
    }
    ep = w.front().second;
  }
  if (l > max_level_) {
    max_level_ = l;
    entry_ = v;
  }
}

void HnswIndex::Freeze(AddressSpace* space) {
  const std::uint64_t n = vs_.size();
  const std::uint64_t page = AddressSpace::kPmrPageBytes;
  // Page-aligned level-0 block: the CubeMap stripes whole PMR pages, so
  // alignment makes the shard boundaries coincide with list boundaries.
  level0_base_ = space->PmrMalloc(n * Stride0Bytes(), page);
  level0_end_ = level0_base_ + n * Stride0Bytes();
  upper_off_.assign(n, {});
  std::uint64_t slots = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    for (int l = 1; l <= levels_[v]; ++l) {
      upper_off_[v].push_back(slots);
      slots += 1 + links_[v][static_cast<std::size_t>(l)].size();
    }
  }
  upper_base_ = space->PmrMalloc(std::max<std::uint64_t>(slots, 1) * 4, page);
  upper_end_ = upper_base_ + slots * 4;
  offsets_base_ = space->structure().Allocate(n * 8);
}

Addr HnswIndex::UpperSlotAddr(std::uint32_t v, int level, int slot) const {
  if (upper_base_ == 0) return 0;
  const std::uint64_t base = upper_off_[v][static_cast<std::size_t>(level - 1)];
  return upper_base_ + (base + 1 + static_cast<std::uint64_t>(slot)) * 4;
}

std::vector<std::uint32_t> HnswIndex::Search(const float* q, int k, int ef,
                                             const SearchVisitor& visit) const {
  GP_CHECK(k >= 1, "hnsw search needs k >= 1");
  if (ef < k) ef = k;
  std::uint32_t ep = entry_;
  float dep = Dist(q, ep);
  // Greedy single-entry descent through the upper layers.
  for (int lc = max_level_; lc >= 1; --lc) {
    bool changed = true;
    while (changed) {
      changed = false;
      if (visit) {
        visit({SearchEvent::Kind::kExpand, lc, ep, 0, OffsetEntryAddr(ep),
               false});
      }
      const auto& nbs = links_[ep][static_cast<std::size_t>(lc)];
      for (std::size_t j = 0; j < nbs.size(); ++j) {
        const std::uint32_t v = nbs[j];
        if (visit) {
          visit({SearchEvent::Kind::kNeighbor, lc, ep, v,
                 UpperSlotAddr(ep, lc, static_cast<int>(j)), false});
        }
        const float d = Dist(q, v);
        if (d < dep) {
          dep = d;
          ep = v;
          changed = true;
        }
      }
    }
  }
  // Level-0 beam search with the visited set and beam updates reported.
  std::vector<char> visited(vs_.size(), 0);
  std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> cands;
  std::priority_queue<Cand> best;
  visited[ep] = 1;
  if (visit) {
    visit({SearchEvent::Kind::kClaim, 0, ep, ep, 0, true});
    visit({SearchEvent::Kind::kImprove, 0, ep, ep, 0, true});
  }
  cands.push({dep, ep});
  best.push({dep, ep});
  while (!cands.empty()) {
    const Cand c = cands.top();
    if (c.first > best.top().first &&
        best.size() >= static_cast<std::size_t>(ef)) {
      break;
    }
    cands.pop();
    if (visit) {
      visit({SearchEvent::Kind::kExpand, 0, c.second, 0,
             Level0CountAddr(c.second), false});
    }
    const auto& nbs = links_[c.second][0];
    for (std::size_t j = 0; j < nbs.size(); ++j) {
      const std::uint32_t v = nbs[j];
      if (visit) {
        visit({SearchEvent::Kind::kNeighbor, 0, c.second, v,
               Level0SlotAddr(c.second, static_cast<int>(j)), false});
      }
      const bool first = visited[v] == 0;
      if (visit) visit({SearchEvent::Kind::kClaim, 0, c.second, v, 0, first});
      if (!first) continue;
      visited[v] = 1;
      const float d = Dist(q, v);
      const bool improved = best.size() < static_cast<std::size_t>(ef) ||
                            d < best.top().first;
      if (visit) {
        visit({SearchEvent::Kind::kImprove, 0, c.second, v, 0, improved});
      }
      if (!improved) continue;
      cands.push({d, v});
      best.push({d, v});
      if (best.size() > static_cast<std::size_t>(ef)) best.pop();
    }
  }
  std::vector<Cand> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::sort(out.begin(), out.end());
  if (out.size() > static_cast<std::size_t>(k)) out.resize(k);
  std::vector<std::uint32_t> ids;
  ids.reserve(out.size());
  for (const Cand& c : out) ids.push_back(c.second);
  return ids;
}

double SelfCheckRecall(const VectorSet& vs, const HnswIndex& index, int k,
                       int ef, int probes) {
  GP_CHECK(probes >= 1, "recall self-check needs probes >= 1");
  double sum = 0.0;
  for (int i = 0; i < probes; ++i) {
    const std::vector<float> q = vs.Query(static_cast<std::uint64_t>(i));
    const std::vector<std::uint32_t> got = index.Search(q.data(), k, ef);
    const std::vector<std::uint32_t> want = BruteForceKnn(vs, q.data(), k);
    std::size_t hits = 0;
    for (std::uint32_t id : got) {
      for (std::uint32_t w : want) {
        if (id == w) {
          ++hits;
          break;
        }
      }
    }
    sum += static_cast<double>(hits) /
           static_cast<double>(std::max<std::size_t>(want.size(), 1));
  }
  return sum / static_cast<double>(probes);
}

}  // namespace graphpim::graph
