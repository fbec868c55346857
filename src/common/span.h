// Transaction flight recorder (DESIGN.md §12).
//
// A SpanRecorder deterministically samples memory requests and records one
// span chain per sampled transaction: every pipeline stage the request
// crosses (cache lookup, POU decision, link hops, vault queue, bank access,
// atomic FU, response return) stamped with enter/exit Ticks. Sampling is a
// pure function of the request id (SplitMix64 threshold test), so the set
// of sampled requests — and every stamp on them — is identical across
// --jobs counts, cube counts, and PIM modes, which is what makes PIM-on
// vs PIM-off attribution a paired comparison.
//
// Overhead contract: when tracing is off (trace.sample_rate=0) no recorder
// is constructed; every hook site reduces to one never-taken null-pointer
// branch and no span.* counters are interned, so goldens stay byte
// identical.
#ifndef GRAPHPIM_COMMON_SPAN_H_
#define GRAPHPIM_COMMON_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace graphpim {
class StatRegistry;
}  // namespace graphpim

namespace graphpim::trace {

// Stage taxonomy. Stages are recorded in traversal order; each maps onto
// the exact Tick arithmetic of the component that models it, so per-stage
// sums reconcile with the aggregate latency counters by construction.
enum class SpanStage : std::uint8_t {
  kIssue = 0,     // backpressure before the fabric: UC-slot / MSHR / line /
                  // bus-lock wait at the issue point
  kCacheLookup,   // L1/L2/L3 tag walk on the host path (detail = hit level,
                  // 0 when the walk missed to memory)
  kPouDecision,   // POU data-path decision; zero modeled latency
                  // (detail = PouRoute)
  kHopLink,       // inter-cube SerDes hops, multi-cube only (detail = cube)
  kCubeLink,      // host->cube link serialization + crossbar, including
                  // retries and injected stalls (detail = cube)
  kVaultQueue,    // vault controller queue wait (detail = vault track)
  kBankAccess,    // DRAM bank access incl. bank-lock/refresh/row state
  kAtomicFu,      // PIM atomic FU wait + execute (offloaded atomics only)
  kResponse,      // cube->host response return (detail = cube)
  kCount
};

// Short stable name used for stat keys ("span.<name>.p50"), journal
// sidecars, and the attribution table.
const char* ToString(SpanStage s);

// Handle into a SpanRecorder's log. Default-constructed refs are invalid:
// hook sites stamp only through valid refs, so unsampled requests thread a
// no-op handle through the same call paths.
class SpanRef {
 public:
  SpanRef() = default;
  explicit SpanRef(std::uint32_t index) : index_(index) {}
  bool valid() const { return index_ != kInvalid; }
  std::uint32_t index() const { return index_; }

 private:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t index_ = kInvalid;
};

struct SpanStageRecord {
  SpanStage stage = SpanStage::kIssue;
  std::uint32_t detail = 0;  // stage-specific (cube id, vault track, level)
  Tick enter = 0;
  Tick exit = 0;
};

struct SpanRecord {
  std::uint64_t id = 0;  // (core << 48) | per-core request ordinal
  std::int32_t core = 0;
  char kind = 'R';  // 'R' load, 'W' store, 'A' atomic
  bool offloaded = false;
  Addr addr = 0;
  Tick begin = 0;  // issue into the memory system
  Tick end = 0;    // retirement-visible completion
  std::vector<SpanStageRecord> stages;
};

struct SpanLog {
  std::vector<SpanRecord> spans;
  bool empty() const { return spans.empty(); }
};

// Request ids are value-derived, never seed-derived: core index in the top
// 16 bits, the core's request ordinal below. Every memory micro-op calls
// the memory system exactly once in every mode, so the id of a given op is
// mode-, jobs-, and cube-invariant.
std::uint64_t SpanRequestId(int core, std::uint64_t ordinal);

// Deterministic sampling decision: SplitMix64 hash of the id against a
// precomputed threshold. Pure function of (sample_rate, id).
bool SampleSpan(double sample_rate, std::uint64_t request_id);

// Collects spans for one simulation run. Not thread-safe by design: the
// timing model replays cores sequentially inside one run, and each run
// owns its recorder.
class SpanRecorder {
 public:
  // `max_spans` bounds memory; 0 means unbounded. Once the cap is reached
  // further requests are not sampled (deterministically: the cap cuts the
  // same prefix of sampled ids in every run of the same workload).
  explicit SpanRecorder(double sample_rate, std::size_t max_spans = 0);

  double sample_rate() const { return sample_rate_; }

  // Starts a span if `id` falls under the sampling threshold; returns an
  // invalid ref otherwise.
  SpanRef Begin(std::uint64_t id, int core, char kind, Addr addr, Tick begin);

  // Appends a stage stamp to a live span. No-op on invalid refs.
  void Stage(SpanRef ref, SpanStage stage, Tick enter, Tick exit,
             std::uint32_t detail = 0);

  // Seals a span with its completion tick and final data path.
  void End(SpanRef ref, Tick end, bool offloaded);

  const SpanLog& log() const { return log_; }
  SpanLog TakeLog() { return std::move(log_); }

  // Drops every recorded span, so the cap and the span indices start over
  // as in a freshly constructed recorder.
  void Reset() { log_.spans.clear(); }

 private:
  double sample_rate_;
  std::uint64_t threshold_;  // sample iff hash(id) < threshold_
  bool sample_all_;
  std::size_t max_spans_;
  SpanLog log_;
};

// Linear lookup of the span with request id `id`; nullptr when that
// request was not sampled. Used by the persist-ordering checker to attach
// timing witnesses to violations.
const SpanRecord* FindSpan(const SpanLog& log, std::uint64_t id);

// One-line rendering of a span's stage chain:
//   "span W t0#42 0x400000010 [123.0, 161.5] ns: issue 0.0 | bank 36.2"
std::string FormatSpanChain(const SpanRecord& sp);

// Folds a span log into `span.*` registry counters: per-stage
// count/sum_ns/mean/p50/p95 histograms over all sampled requests, plus the
// atomic-only attribution family (span.atomic.<stage>.sum_ns etc.) that
// backs the bottleneck table. Touches nothing when the log is empty.
void FoldSpanStats(const SpanLog& log, StatRegistry* reg);

// One span as a single strict-JSON object (no trailing newline); the unit
// the journal sidecar embeds in its "spans" array.
std::string SpanToJson(const SpanRecord& sp);

// One JSON object per line, strict-JSON parseable:
//   {"id":...,"core":0,"kind":"A","addr":...,"begin_ns":...,"end_ns":...,
//    "offloaded":1,"stages":[{"s":"vault_queue","d":3,"enter_ns":...,
//    "exit_ns":...}]}
std::string SpansToJsonl(const SpanLog& log);

// The same spans as a fragment of Chrome-trace events (no enclosing
// brackets), one track per core/cube/vault, in the splice convention
// ToChromeTrace assembles beside the interval logs' fragments.
std::string SpansToChromeEvents(const SpanLog& log);

}  // namespace graphpim::trace

#endif  // GRAPHPIM_COMMON_SPAN_H_
