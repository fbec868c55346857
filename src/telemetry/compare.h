// Run-comparison regression sentinel (DESIGN.md §17).
//
// Flattens two metrics/timeline JSON artifacts (a single JSON document
// such as a BENCH_*.json point or a Chrome trace, or JSONL such as a
// timeline or phase log) into name-sorted {counter -> value} maps, then
// diffs them against per-counter tolerances. tools/graphpim_compare is a
// thin CLI over this; CI uses it as the perf gate on the bench
// trajectory.
#ifndef GRAPHPIM_TELEMETRY_COMPARE_H_
#define GRAPHPIM_TELEMETRY_COMPARE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace graphpim::telemetry {

// Every numeric leaf of a run artifact, dotted-path keyed, name-sorted.
// Nested objects flatten as "a.b.c"; array elements as "a.3.b"; booleans
// as 0/1; string leaves are dropped (they identify, they don't measure).
// JSONL input flattens per line, with each line's keys prefixed by its
// identity fields: "point.<p>." / "window.<n>." / "phase.<name>." when
// present, "line.<i>." otherwise.
struct FlatRun {
  std::vector<std::pair<std::string, double>> values;  // sorted by key

  const double* Find(const std::string& key) const;
};

// Parses `text` (JSON document or JSONL) into a FlatRun. Input must be
// strict JSON (RFC 8259, read through common/json.h): anything else,
// non-JSON numbers such as 0x10, inf or +1 included, throws SimError.
// Duplicate keys keep the first occurrence.
FlatRun FlattenRunJson(const std::string& text);

struct CompareOptions {
  // A key passes when |head - base| <= abs_tol + rel_tol * |base|.
  double rel_tol = 0.0;
  double abs_tol = 0.0;
  // Per-key relative-tolerance overrides; the longest matching prefix
  // wins over rel_tol.
  std::vector<std::pair<std::string, double>> per_key;
  // When non-empty, only keys equal to or prefixed by one of these are
  // compared.
  std::vector<std::string> keys;
  // When true, a key present in only one run fails the comparison.
  bool fail_on_missing = false;
};

struct DriftRow {
  enum Status { kPass, kFail, kOnlyBase, kOnlyHead };

  std::string key;
  double base = 0.0;
  double head = 0.0;
  // Relative drift (head - base) / |base|; +/-inf when base == 0 and
  // head != 0.
  double drift = 0.0;
  double tol = 0.0;  // the relative tolerance applied to this key
  Status status = kPass;
};

struct DriftReport {
  // Failures first (largest |drift| first), then keys present in only one
  // run, then passes by |drift|.
  std::vector<DriftRow> rows;
  std::size_t compared = 0;  // keys present in both runs
  std::size_t failed = 0;    // over tolerance (missing included when fatal)
  std::size_t missing = 0;   // keys present in only one run

  bool pass() const { return failed == 0; }
};

DriftReport CompareRuns(const FlatRun& base, const FlatRun& head,
                        const CompareOptions& opts);

// Human-readable drift table; at most `max_rows` detail rows plus a
// summary line. Shows every failure even past the cap.
std::string FormatDriftTable(const DriftReport& report,
                             std::size_t max_rows = 24);

}  // namespace graphpim::telemetry

#endif  // GRAPHPIM_TELEMETRY_COMPARE_H_
