// Phase-delta capture and trace export (DESIGN.md §10).
//
// A PhaseLog turns registry snapshots into a sequence of named phases
// (BSP supersteps, warmup/drain windows, anything the run loop wants to
// delimit), each carrying the counter deltas accrued during that phase.
// Export targets:
//   - Chrome trace JSON ("catapult" format, load in chrome://tracing or
//     Perfetto): one "X" complete event per phase plus "C" counter tracks.
//   - JSONL: one self-contained JSON object per phase, greppable and
//     streamable; also the format embedded in the sweep journal.
#ifndef GRAPHPIM_COMMON_TRACE_H_
#define GRAPHPIM_COMMON_TRACE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/stats.h"
#include "common/types.h"

namespace graphpim::trace {

struct PhaseRecord {
  std::string name;
  Tick start = 0;  // ticks (picoseconds)
  Tick end = 0;
  // Counters that changed during the phase, name-sorted (value = delta).
  std::vector<std::pair<std::string, double>> deltas;
};

// Accumulates phases by diffing successive registry snapshots. Not
// thread-safe: cut phases from the orchestrating thread (the run loop's
// barrier rendezvous), never from workers.
class PhaseLog {
 public:
  // Records phase [start, end) with deltas relative to the previous Cut
  // (or to zero for the first). `reg` is the merged whole-system registry
  // at the cut point.
  void Cut(std::string name, Tick start, Tick end, const StatRegistry& reg);

  const std::vector<PhaseRecord>& phases() const { return phases_; }
  bool empty() const { return phases_.empty(); }
  void Clear();

 private:
  std::vector<PhaseRecord> phases_;
  StatSnapshot prev_;
};

// Extra pre-rendered content merged into a trace export. Layers above
// common/ (the telemetry timelines) hand their events down as strings so
// this file needs no upward dependency:
//   chrome_events — Chrome-trace events in the splice convention of
//                   SpansToChromeEvents: each event prefixed with "\n",
//                   events joined with ",". Appended inside traceEvents.
//   jsonl_lines   — newline-terminated JSON lines appended after the
//                   phase (and span) lines in JSONL output.
struct TraceExtras {
  const SpanLog* spans = nullptr;
  std::string chrome_events;
  std::string jsonl_lines;
};

// Chrome trace JSON (single object, "traceEvents" array). Timestamps are
// microseconds of simulated time. When `spans` is non-null its sampled
// transactions are merged in on their own core/cube/vault tracks next to
// the phase timeline. An empty log (and no spans) yields the canonical
// empty document {"displayTimeUnit":"ns","traceEvents":[]}.
std::string ToChromeTrace(const PhaseLog& log,
                          const SpanLog* spans = nullptr);
std::string ToChromeTrace(const PhaseLog& log, const TraceExtras& extras);

// One JSON object per line:
//   {"phase":"superstep.3","start_ns":...,"end_ns":...,"deltas":{...}}
std::string ToJsonl(const PhaseLog& log);

// Writes the log to `path`; ".jsonl" extension selects JSONL, anything
// else Chrome trace. The extras are merged into the Chrome trace, or
// appended after the phase lines in JSONL. Throws SimError naming the path
// on I/O failure.
void WriteTrace(const PhaseLog& log, const std::string& path,
                const TraceExtras& extras = {});

// Formats a counter value the way trace/journal output expects: integral
// values without a fraction, others with shortest round-trip-ish "%.6g".
std::string FormatStatValue(double v);

}  // namespace graphpim::trace

#endif  // GRAPHPIM_COMMON_TRACE_H_
