// Statistics registry (DESIGN.md §10).
//
// Counters live in a StatRegistry: a dense std::vector<double> addressed by
// interned StatId handles. Components resolve names ONCE at construction
// (via a StatScope view) and update counters on the simulated-access hot
// path with a plain indexed add — no std::string construction, no map
// lookup, no allocation. String-keyed access (Get/Set/Add by name) remains
// available as the slow path for report building, tests, and journal
// restore.
//
// Counters are plain doubles: most are integral event counts, a few are
// accumulated nanoseconds or Ticks. Integral counts stay exact up to 2^53.
//
// A counter is "touched" once any Add/Inc/Set reaches it; Items() and
// AllItems() list only touched counters, so pre-registering a counter that
// an experiment never exercises does not change report output (the same
// contract the old string-keyed StatSet implied by creating keys on first
// use).
//
// Compatibility view: Items() additionally hides the reserved "core."
// scope. Core-pipeline counters folded into the registry surface through
// SimResults' headline fields (insts, atomics, the Fig 2/9 fractions), and
// the pre-registry JSON "counters" object never contained them — hiding
// the scope keeps that output byte-identical. AllItems(), snapshots, and
// trace export include every touched counter.
#ifndef GRAPHPIM_COMMON_STATS_H_
#define GRAPHPIM_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace graphpim {

// Interned handle to one registry counter. Obtained from
// StatRegistry::Intern / StatScope::Counter at component construction;
// invalid (default) handles come from a null-registry scope and make the
// scope's update helpers no-ops.
class StatId {
 public:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  constexpr StatId() = default;
  constexpr explicit StatId(std::uint32_t index) : index_(index) {}

  constexpr bool valid() const { return index_ != kInvalid; }
  constexpr std::uint32_t index() const { return index_; }

 private:
  std::uint32_t index_ = kInvalid;
};

// A point-in-time copy of every touched counter, name-sorted. Snapshots
// are index-independent (they carry names), so deltas can be taken across
// registries with different interning orders — e.g. a registry restored
// from the sweep journal (interned in name order) and the live one it was
// saved from (interned in construction order).
struct StatSnapshot {
  std::vector<std::pair<std::string, double>> values;  // sorted by name

  double Get(const std::string& name) const {
    auto it = std::lower_bound(
        values.begin(), values.end(), name,
        [](const auto& kv, const std::string& n) { return kv.first < n; });
    return (it != values.end() && it->first == name) ? it->second : 0.0;
  }
};

// Counter deltas between two snapshots: every counter whose value changed
// (or appeared) in `now` relative to `since`, name-sorted.
std::vector<std::pair<std::string, double>> DeltaItems(const StatSnapshot& now,
                                                       const StatSnapshot& since);

class StatRegistry {
 public:
  StatRegistry() = default;

  // Resolves `name` to a dense handle, registering it on first use.
  // Idempotent: the same name always returns the same id. Interning only
  // appends, so existing ids stay valid for the registry's lifetime.
  StatId Intern(std::string_view name);

  // --- Hot path: O(1) indexed updates, zero allocation. ---------------
  // Add and Inc run on every simulated access, and an LTO build left
  // out-of-line copies of them, so they are forced inline.

  [[gnu::always_inline]] void Add(StatId id, double v) {
    values_[id.index()] += v;
    touched_[id.index()] = 1;
  }

  [[gnu::always_inline]] void Inc(StatId id) { Add(id, 1.0); }

  void Set(StatId id, double v) {
    values_[id.index()] = v;
    touched_[id.index()] = 1;
  }

  double Get(StatId id) const { return values_[id.index()]; }

  // --- Slow path (report building, tests, journal restore). -----------

  void Add(const std::string& name, double v) { Add(Intern(name), v); }
  void Inc(const std::string& name) { Add(name, 1.0); }
  void Set(const std::string& name, double v) { Set(Intern(name), v); }

  // Returns the counter value, or 0 if never registered.
  double Get(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0.0 : values_[it->second];
  }

  // True once the counter has been touched by any Add/Inc/Set.
  bool Has(const std::string& name) const {
    auto it = index_.find(name);
    return it != index_.end() && touched_[it->second] != 0;
  }

  // Merges another registry into this one (adding values). Counters are
  // matched by name; `other`'s names are interned here as needed. Touched
  // state propagates, so a merge never invents counters the sources never
  // exercised. Deterministic: depends only on the two registries' values,
  // not on scheduling or merge order of equal-valued inputs.
  void Merge(const StatRegistry& other);

  // Zeroes every counter and clears touched state; interned names (and
  // outstanding StatIds) remain valid.
  void Reset();

  // Compatibility view: touched counters in name order, excluding hidden
  // scopes (see file comment). Byte-compatible with the pre-registry
  // StatSet::Items() output for the same run.
  std::vector<std::pair<std::string, double>> Items() const;

  // Every touched counter in name order, hidden scopes included.
  std::vector<std::pair<std::string, double>> AllItems() const;

  // Snapshot of AllItems() for later delta-ing (phase/superstep metrics).
  StatSnapshot Snapshot() const;

  std::size_t NumRegistered() const { return values_.size(); }

  // True for counters the compatibility Items() view hides. Name-based
  // (not a per-registry flag) so the rule survives journal round-trips and
  // cross-registry merges.
  static bool HiddenName(std::string_view name) {
    return name.rfind("core.", 0) == 0;
  }

 private:
  std::vector<double> values_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> index_;
};

// Component-scoped registry view: counters registered through a scope get
// a "prefix." qualified name, so layers pick unique global names without
// plumbing them through call sites. A scope over a null registry hands out
// invalid ids and turns the update helpers into no-ops — components keep
// the old "stats may be null" contract with a single branch per update.
class StatScope {
 public:
  StatScope() = default;
  StatScope(StatRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  // Interns "<prefix>.<name>" (or bare `name` for an empty prefix).
  StatId Counter(std::string_view name) const {
    if (registry_ == nullptr) return StatId();
    if (prefix_.empty()) return registry_->Intern(name);
    std::string full;
    full.reserve(prefix_.size() + 1 + name.size());
    full += prefix_;
    full += '.';
    full.append(name);
    return registry_->Intern(full);
  }

  // Nested scope: "<prefix>.<name>".
  StatScope Sub(std::string_view name) const {
    if (registry_ == nullptr) return StatScope();
    std::string full = prefix_.empty() ? std::string(name)
                                       : prefix_ + '.' + std::string(name);
    return StatScope(registry_, std::move(full));
  }

  [[gnu::always_inline]] void Add(StatId id, double v) const {
    if (registry_ != nullptr) registry_->Add(id, v);
  }
  [[gnu::always_inline]] void Inc(StatId id) const {
    if (registry_ != nullptr) registry_->Inc(id);
  }
  void Set(StatId id, double v) const {
    if (registry_ != nullptr) registry_->Set(id, v);
  }

  bool attached() const { return registry_ != nullptr; }
  StatRegistry* registry() const { return registry_; }
  const std::string& prefix() const { return prefix_; }

 private:
  StatRegistry* registry_ = nullptr;
  std::string prefix_;
};

// A simple fixed-bucket histogram for latency distributions.
class Histogram {
 public:
  // Buckets are [0,w), [w,2w), ... plus an overflow bucket.
  Histogram(double bucket_width, std::size_t num_buckets)
      : width_(bucket_width), counts_(num_buckets + 1, 0) {}

  void Record(double v) {
    ++total_;
    sum_ += v;
    if (v > max_) max_ = v;
    // Negative values clamp into bucket 0: the unguarded cast would wrap
    // to a huge index (UB / out-of-range), and [0,w) is the honest home
    // for out-of-domain samples in a non-negative-domain histogram.
    std::size_t idx = v <= 0.0 ? 0 : static_cast<std::size_t>(v / width_);
    if (idx >= counts_.size() - 1) idx = counts_.size() - 1;
    ++counts_[idx];
  }

  std::uint64_t total() const { return total_; }
  double mean() const { return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_); }
  double Mean() const { return mean(); }
  double max() const { return max_; }

  // Value at quantile `q` in [0, 1], linearly interpolated inside the
  // containing bucket. Ranks falling in the overflow bucket report max(),
  // since per-value resolution is lost there. Returns 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i + 1 < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double in_bucket = static_cast<double>(counts_[i]);
      if (static_cast<double>(cum) + in_bucket >= target) {
        const double frac =
            std::clamp((target - static_cast<double>(cum)) / in_bucket, 0.0, 1.0);
        return (static_cast<double>(i) + frac) * width_;
      }
      cum += counts_[i];
    }
    return max_;
  }

  // Percentile convenience: `p` in [0, 100]. Quantile(p / 100).
  double Percentile(double p) const {
    return Quantile(std::clamp(p, 0.0, 100.0) / 100.0);
  }

  const std::vector<std::uint64_t>& counts() const { return counts_; }
  double bucket_width() const { return width_; }

 private:
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_STATS_H_
