// The interval log and trace export (DESIGN.md §10, §17).
//
// An IntervalLog records a run as intervals of simulated time, cut at
// barriers or at fixed windows. A log exports as JSONL, one object per
// interval (also the body of the sweep journal's sidecar lines), and as a
// fragment of Chrome-trace events ("catapult" format, for chrome://tracing
// or Perfetto) that ToChromeTrace assembles with the span tracks.
#ifndef GRAPHPIM_COMMON_TRACE_H_
#define GRAPHPIM_COMMON_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/stats.h"
#include "common/types.h"

namespace graphpim::trace {

// Named values of one interval.
using Items = std::vector<std::pair<std::string, double>>;

struct Interval {
  std::string name;  // barrier cuts only; a window's id is its position
  Tick start = 0;    // ticks (picoseconds)
  Tick end = 0;
  // Counters that changed since the previous cut, name-sorted (value =
  // delta). When one AdvanceTo jumps several window boundaries the deltas
  // attach to the first window of the span and the rest stay empty:
  // virtual time inside a quantum is not subdividable after the fact.
  Items deltas;
  // Instantaneous samples taken at a window cut (queue depth, link
  // occupancy, ...), in emission order. Barrier cuts carry none.
  Items gauges;
};

// Fills `out` with gauge samples for window [start, end). Must be
// deterministic in the state at the cut point.
using GaugeSampler = std::function<void(Tick start, Tick end, Items* out)>;

// Not thread-safe: cut from the thread that runs the loop being logged
// (the replay loop, the serve event loop), never from workers.
class IntervalLog {
 public:
  // A barrier log, filled by Cut.
  IntervalLog() = default;

  // A window log, filled by AdvanceTo and Finish with half-open windows
  // [k*window, (k+1)*window). `window` must be > 0. `max_windows` bounds
  // the log (0 = unbounded); windows cut past it are counted in dropped()
  // instead of stored. `gauges` may be empty. Finish releases it, so it
  // may capture locals of the loop that calls Finish.
  IntervalLog(Tick window, std::uint64_t max_windows, GaugeSampler gauges);

  // Barrier policy: records [start, end) with the deltas of `reg` (the
  // run's registry at the cut) since the previous cut, or since zero for
  // the first.
  void Cut(std::string name, Tick start, Tick end, const StatRegistry& reg);

  // Window policy. The first boundary not yet cut: callers gate on
  // `now >= next_boundary()` to keep the hot path to one compare.
  Tick next_boundary() const { return next_boundary_; }
  // Cuts every window whose boundary is <= now, taking one snapshot of
  // `reg` however many boundaries are crossed. A null `reg` records no
  // deltas (gauges-only windows).
  void AdvanceTo(Tick now, const StatRegistry* reg);
  // Advances through `end`, then cuts the trailing partial window [last
  // boundary, end) when it is non-empty, or when no window is stored yet,
  // so a windowed run always yields at least one window. Releases the
  // gauge sampler; a second call does nothing.
  void Finish(Tick end, const StatRegistry* reg);

  bool windowed() const { return window_ != 0; }
  const std::vector<Interval>& intervals() const { return intervals_; }
  bool empty() const { return intervals_.empty(); }
  // Windows cut past max_windows: counted, never silently lost.
  std::uint64_t dropped() const { return dropped_; }

 private:
  // Deltas of `reg` since the previous snapshot; none for a null `reg`.
  Items DeltasSince(const StatRegistry* reg);
  void CutWindow(Tick start, Tick end, Items deltas);

  std::vector<Interval> intervals_;
  StatSnapshot prev_;
  Tick window_ = 0;
  Tick next_boundary_ = 0;
  std::uint64_t max_windows_ = 0;
  std::uint64_t dropped_ = 0;
  GaugeSampler gauges_;
  bool finished_ = false;
};

// One JSON object per interval. A barrier log prints
//   {"phase":"superstep.3","start_ns":...,"end_ns":...,"deltas":{...}}
// and a window log
//   {"window":3,"start_ns":...,"end_ns":...,"deltas":{...},"gauges":{...}}
// A non-empty `point` adds a leading "point" field (serve grid cells).
std::string ToJsonl(const IntervalLog& log, const std::string& point = "");

// The log as a fragment of Chrome-trace events, in the splice convention
// of SpansToChromeEvents: each event prefixed with "\n", events joined
// with ","; empty for an empty log. A barrier log gives one complete
// ("X") slice per interval, deltas attached as args, plus one counter
// ("C") event per delta. A window log gives counter events only: deltas
// on "tele:"-prefixed tracks, distinct from the per-phase tracks, and
// gauges under their own names. A non-empty `prefix` (e.g. "<point>|")
// namespaces every name for multi-point traces. Every event sits on pid
// 1, apart from the span renderer's processes.
std::string ToChromeEvents(const IntervalLog& log,
                           const std::string& prefix = "");

// Chrome trace JSON (single object, "traceEvents" array) holding the
// non-empty `fragments` in order. Timestamps are microseconds of simulated
// time. No events yield the canonical empty document
// {"displayTimeUnit":"ns","traceEvents":[]}.
std::string ToChromeTrace(const std::vector<std::string>& fragments);

// Writes `jsonl` to `path` when it has a ".jsonl" extension, and the
// Chrome trace of `fragments` otherwise. Throws SimError naming the path
// on I/O failure.
void WriteTrace(const std::string& path,
                const std::vector<std::string>& fragments,
                const std::string& jsonl);

// Guards "telemetry on but nowhere to write it": throws SimError naming
// telemetry.window_ns when `window_ns` > 0 and `has_sink` is false.
// `hint` names the flags that would attach a sink for this driver.
void RequireSink(double window_ns, bool has_sink, const char* hint);

// Formats a counter value the way trace/journal output expects: integral
// values without a fraction, others with shortest round-trip-ish "%.6g".
std::string FormatStatValue(double v);

}  // namespace graphpim::trace

#endif  // GRAPHPIM_COMMON_TRACE_H_
