// SLO folding, saturation-table formatting, and knee detection.
#ifndef GRAPHPIM_SERVE_SLO_H_
#define GRAPHPIM_SERVE_SLO_H_

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "serve/engine.h"

namespace graphpim::serve {

// Exact quantile over an ASCENDING-sorted sample vector, linearly
// interpolated between order statistics (q in [0,1]; 0 on empty input).
// Used instead of the bucketed Histogram for serve latencies, whose
// dynamic range spans µs to ms within one sweep.
double QuantileSorted(const std::vector<double>& sorted, double q);

// Folds a finished point's SLO numbers into `reg` under the serve.*
// scope: serve.{offered,served,dropped,drop_rate,batches,replayed_ops},
// serve.latency.{p50,p95,p99,mean,max}_ns, serve.queue.{mean,peak}_depth,
// serve.{util,achieved_qps,horizon_ns}, and per-tenant
// serve.tenant<k>.{offered,served,dropped,p50_ns,p95_ns,p99_ns}.
void FoldServeStats(const ServePoint& pt, StatRegistry* reg);

// The deterministic saturation table: one row per point, in the given
// order, fixed-width columns (config, qps, served, drop%, p50/p95/p99 µs,
// queue mean/peak, util, achieved qps). Contains nothing wall-clock, so
// two runs of the same grid produce byte-identical text.
std::string FormatSaturationTable(const std::vector<ServePoint>& points);

// Saturation knee of one config's qps series (points must share a config
// and ascend in qps): the largest offered qps the machine still "keeps up
// with". A point keeps up when (a) its drop rate is <= `max_drop`, (b) the
// admission queue never filled (queue_peak < queue_limit), and (c) its p99
// stays within `latency_x` times the series' light-load p99 (the p99 of
// the lowest-qps point) — the classic latency-vs-throughput knee, which
// bends before drops appear. Counts (a)/(b) are measured over the same
// run, so finite-horizon drain bias cancels out by construction.
struct KneeSummary {
  std::string config_name;
  double knee_qps = 0.0;    // 0 when even the lowest point saturates
  bool saturated = false;   // true if any grid point exceeded the knee
};

KneeSummary FindKnee(const std::vector<ServePoint>& series,
                     double latency_x = 4.0, double max_drop = 0.01);

// Per-config knee lines ("<config>: knee >= N qps" / "saturates at ...").
// Deterministic text, grouped in first-appearance config order.
std::string FormatKneeSummary(const std::vector<ServePoint>& points);

// One-line telemetry note for the live heartbeat, from the last window of
// a point's timeline: "qps=1.2e+06 p99=824us q=3". "" when the timeline
// has no windows (telemetry off).
std::string TimelineNote(const trace::IntervalLog& tl);

// Deterministic per-point window table (DESIGN.md §17): one row per
// telemetry window of every point, in point order. "" when no point
// carries windows, so telemetry-off output is untouched. Printed inside
// the saturation markers, so the golden identity gates cover it.
std::string FormatServeTimeline(const std::vector<ServePoint>& points);

// Builds the --metrics-out phase log: a barrier log with one interval
// per point (named "<config>@qps=<q>", duration = the point's simulated
// horizon) whose deltas are exactly that point's registry contribution.
// Export through trace::WriteTrace like every other tool.
trace::IntervalLog BuildServePhases(const std::vector<ServePoint>& points);

}  // namespace graphpim::serve

#endif  // GRAPHPIM_SERVE_SLO_H_
