// Virtual-time windowed telemetry (DESIGN.md §17).
//
// A WindowSampler cuts the run into fixed-width virtual-time windows
// (`telemetry.window_ns`) and records, per window, (a) StatRegistry counter
// deltas accrued since the previous cut and (b) instantaneous gauges read
// from the live machine (vault queue depth, link occupancy, POU in-flight
// ops — or, on the serve side, admission-queue length and per-window
// latency quantiles). Windows land in a Timeline that exports as JSONL
// lines and as Chrome-trace counter ("C") events merged into the existing
// --metrics-out trace.
//
// Determinism contract: the sampler is driven only from deterministic
// points: the end of each replay-loop round, where quantum_end depends
// only on simulated time, and the sweep harvest, which is grid-ordered at
// any --jobs. A timeline is therefore bit-identical across reruns and
// --jobs. With `telemetry.window_ns=0` (the default)
// no sampler is ever constructed and every output byte matches a build
// without this subsystem — the same off-is-identity discipline as
// `trace.sample_rate` and `pmem.enable`.
#ifndef GRAPHPIM_TELEMETRY_TIMELINE_H_
#define GRAPHPIM_TELEMETRY_TIMELINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace graphpim::telemetry {

// One telemetry window [start, end). `end` is the nominal boundary
// (index+1 times the window width) except for the trailing partial window,
// which ends at the run's final tick.
struct TimelineWindow {
  std::uint64_t index = 0;
  Tick start = 0;
  Tick end = 0;
  // Counter deltas accrued since the previous cut, name-sorted. When the
  // engine jumps several boundaries inside one quantum the deltas attach
  // to the first window of the span and the rest stay empty (virtual time
  // inside a quantum is not subdividable after the fact).
  std::vector<std::pair<std::string, double>> deltas;
  // Instantaneous gauges sampled at the cut, in emission order.
  std::vector<std::pair<std::string, double>> gauges;
};

struct Timeline {
  Tick window_ticks = 0;
  std::uint64_t dropped_windows = 0;  // cut past telemetry.max_windows
  std::vector<TimelineWindow> windows;

  bool empty() const { return windows.empty(); }
  void Clear() {
    window_ticks = 0;
    dropped_windows = 0;
    windows.clear();
  }
};

// Fills `out` with instantaneous gauge samples for window [win_start,
// win_end). Must be deterministic in the machine state at the cut point.
using GaugeSampler = std::function<void(
    Tick win_start, Tick win_end,
    std::vector<std::pair<std::string, double>>* out)>;

// Accumulates windows by diffing successive registry snapshots at window
// boundaries. Not thread-safe: drive it from the thread running the
// replay loop.
class WindowSampler {
 public:
  // `window_ticks` must be > 0. `max_windows` bounds the timeline
  // (0 = unbounded); windows cut past the cap are counted in
  // Timeline::dropped_windows instead of stored. `gauges` may be empty.
  WindowSampler(Tick window_ticks, Timeline* out, std::uint64_t max_windows,
                GaugeSampler gauges);

  // First boundary not yet cut. Callers gate on
  // `now >= next_boundary()` to keep the hot path to one compare.
  Tick next_boundary() const { return next_boundary_; }

  // Cuts every window whose boundary is <= now. One registry snapshot is
  // taken per call regardless of how many boundaries are crossed.
  void AdvanceTo(Tick now, const StatRegistry& merged);

  // Final flush: advances through `end`, then cuts the trailing partial
  // window [last boundary, end) when it is non-empty (or when no window
  // was ever cut, so a telemetry-on run always yields >= 1 window).
  // Idempotent.
  void Finish(Tick end, const StatRegistry& merged);

 private:
  void CutWindow(Tick start, Tick end,
                 std::vector<std::pair<std::string, double>> deltas);

  Tick window_ = 0;
  Tick next_boundary_ = 0;
  std::uint64_t max_windows_ = 0;
  Timeline* out_ = nullptr;
  GaugeSampler gauges_;
  StatSnapshot prev_;
  bool finished_ = false;
};

// One JSON object per window:
//   {"window":3,"start_ns":...,"end_ns":...,"deltas":{...},"gauges":{...}}
// A non-empty `point` adds a leading "point" field (serve grid cells,
// sweep cells).
std::string ToJsonl(const Timeline& tl, const std::string& point = "");

// Pre-rendered Chrome-trace counter ("C") events, formatted for direct
// splicing into ToChromeTrace's traceEvents array (each event preceded by
// "\n", events joined with ","; empty string when the timeline is empty).
// Counter deltas get a "tele:" name prefix to keep their tracks distinct
// from the per-phase counter tracks; gauges keep their names. A non-empty
// `prefix` (e.g. "<point>|") namespaces every track for multi-point
// traces.
std::string ChromeCounterEvents(const Timeline& tl,
                                const std::string& prefix = "",
                                int pid = 3);

// Guards "telemetry on but nowhere to write it": throws SimError naming
// telemetry.window_ns when `window_ns` > 0 and `has_sink` is false.
// `hint` names the flags that would attach a sink for this driver.
void RequireSink(double window_ns, bool has_sink, const char* hint);

}  // namespace graphpim::telemetry

#endif  // GRAPHPIM_TELEMETRY_TIMELINE_H_
