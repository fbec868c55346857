#include "serve/slo.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace graphpim::serve {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac;
}

void FoldServeStats(const ServePoint& pt, StatRegistry* reg) {
  if (reg == nullptr) return;
  reg->Set("serve.offered", static_cast<double>(pt.offered));
  reg->Set("serve.served", static_cast<double>(pt.served));
  reg->Set("serve.dropped", static_cast<double>(pt.dropped));
  reg->Set("serve.drop_rate", pt.drop_rate);
  reg->Set("serve.batches", static_cast<double>(pt.batches));
  reg->Set("serve.replayed_ops", static_cast<double>(pt.replayed_ops));
  reg->Set("serve.latency.p50_ns", pt.p50_ns);
  reg->Set("serve.latency.p95_ns", pt.p95_ns);
  reg->Set("serve.latency.p99_ns", pt.p99_ns);
  reg->Set("serve.latency.mean_ns", pt.mean_ns);
  reg->Set("serve.latency.max_ns", pt.max_ns);
  reg->Set("serve.queue.mean_depth", pt.queue_mean);
  reg->Set("serve.queue.peak_depth", static_cast<double>(pt.queue_peak));
  reg->Set("serve.queue.limit_depth", static_cast<double>(pt.queue_limit));
  reg->Set("serve.util", pt.util);
  reg->Set("serve.achieved_qps", pt.achieved_qps);
  reg->Set("serve.horizon_ns", pt.horizon_ns);
  for (std::size_t t = 0; t < pt.tenants.size(); ++t) {
    const TenantSlo& slo = pt.tenants[t];
    const std::string base = StrFormat("serve.tenant%zu.", t);
    reg->Set(base + "offered", static_cast<double>(slo.offered));
    reg->Set(base + "served", static_cast<double>(slo.served));
    reg->Set(base + "dropped", static_cast<double>(slo.dropped));
    reg->Set(base + "p50_ns", slo.p50_ns);
    reg->Set(base + "p95_ns", slo.p95_ns);
    reg->Set(base + "p99_ns", slo.p99_ns);
  }
}

std::string FormatSaturationTable(const std::vector<ServePoint>& points) {
  std::string out =
      StrFormat("%-14s %10s %7s %7s %6s %9s %9s %9s %6s %6s %5s %12s\n",
                "config", "qps", "offered", "served", "drop%", "p50_us",
                "p95_us", "p99_us", "qmean", "qpeak", "util", "achieved_qps");
  for (const ServePoint& p : points) {
    out += StrFormat(
        "%-14s %10.0f %7llu %7llu %5.1f%% %9.2f %9.2f %9.2f %6.2f %6llu "
        "%5.2f %12.0f\n",
        p.config_name.c_str(), p.qps,
        static_cast<unsigned long long>(p.offered),
        static_cast<unsigned long long>(p.served), 100.0 * p.drop_rate,
        p.p50_ns / 1e3, p.p95_ns / 1e3, p.p99_ns / 1e3, p.queue_mean,
        static_cast<unsigned long long>(p.queue_peak), p.util,
        p.achieved_qps);
  }
  return out;
}

KneeSummary FindKnee(const std::vector<ServePoint>& series, double latency_x,
                     double max_drop) {
  KneeSummary k;
  if (series.empty()) return k;
  k.config_name = series.front().config_name;
  // The light-load reference: p99 of the series' lowest-qps point. The
  // knee is where the latency curve departs that floor, which on a short
  // open-loop run bends well before drops show up.
  const ServePoint* lightest = &series.front();
  for (const ServePoint& p : series) {
    if (p.qps < lightest->qps) lightest = &p;
  }
  const double p99_budget = latency_x * lightest->p99_ns;
  for (const ServePoint& p : series) {
    const bool queue_filled =
        p.queue_limit > 0 && p.queue_peak >= p.queue_limit;
    const bool keeps_up = p.qps > 0.0 && p.drop_rate <= max_drop &&
                          !queue_filled && p.p99_ns <= p99_budget;
    if (keeps_up) {
      if (p.qps > k.knee_qps) k.knee_qps = p.qps;
    } else {
      k.saturated = true;
    }
  }
  return k;
}

std::string FormatKneeSummary(const std::vector<ServePoint>& points) {
  // Group by config in first-appearance order (the grid's config-major
  // layout already clusters them; this stays correct regardless).
  std::vector<std::string> order;
  std::string out;
  for (const ServePoint& p : points) {
    if (std::find(order.begin(), order.end(), p.config_name) != order.end()) {
      continue;
    }
    order.push_back(p.config_name);
    std::vector<ServePoint> series;
    for (const ServePoint& q : points) {
      if (q.config_name == p.config_name) series.push_back(q);
    }
    const KneeSummary k = FindKnee(series);
    if (k.knee_qps <= 0.0) {
      out += StrFormat("%-14s saturated at every grid point\n",
                       k.config_name.c_str());
    } else if (k.saturated) {
      out += StrFormat("%-14s knee at %.0f qps\n", k.config_name.c_str(),
                       k.knee_qps);
    } else {
      out += StrFormat("%-14s knee >= %.0f qps (grid never saturated it)\n",
                       k.config_name.c_str(), k.knee_qps);
    }
  }
  return out;
}

namespace {

// Gauge lookup by name; windows carry a small fixed list, linear scan.
double GaugeOr(const trace::Interval& w, const char* name,
               double fallback = 0.0) {
  for (const auto& [k, v] : w.gauges) {
    if (k == name) return v;
  }
  return fallback;
}

}  // namespace

std::string TimelineNote(const trace::IntervalLog& tl) {
  if (tl.empty()) return "";
  const trace::Interval& w = tl.intervals().back();
  return StrFormat("qps=%.3g p99=%.0fus q=%.0f",
                   GaugeOr(w, "serve.achieved_qps"),
                   GaugeOr(w, "serve.p99_ns") / 1e3,
                   GaugeOr(w, "serve.queue_depth"));
}

std::string FormatServeTimeline(const std::vector<ServePoint>& points) {
  bool any = false;
  for (const ServePoint& p : points) any = any || !p.timeline.empty();
  if (!any) return "";
  std::string out = StrFormat(
      "%-24s %4s %10s %5s %5s %5s %5s %9s %9s %4s %4s  %s\n", "point", "win",
      "t0_us", "arr", "adm", "drop", "done", "p50_us", "p99_us", "q", "fly",
      "tenant burn");
  for (const ServePoint& p : points) {
    const std::string name =
        StrFormat("%s@qps=%.0f", p.config_name.c_str(), p.qps);
    const std::vector<trace::Interval>& windows = p.timeline.intervals();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const trace::Interval& w = windows[i];
      std::string burn;
      for (const auto& [k, v] : w.gauges) {
        if (k.size() > 9 && k.compare(k.size() - 9, 9, ".slo_burn") == 0) {
          if (!burn.empty()) burn += ' ';
          burn += StrFormat("%.2f", v);
        }
      }
      out += StrFormat(
          "%-24s %4llu %10.1f %5.0f %5.0f %5.0f %5.0f %9.2f %9.2f %4.0f "
          "%4.0f  %s\n",
          name.c_str(), static_cast<unsigned long long>(i),
          static_cast<double>(w.start) / (1e3 * kTicksPerNs),
          GaugeOr(w, "serve.arrivals"), GaugeOr(w, "serve.admitted"),
          GaugeOr(w, "serve.dropped"), GaugeOr(w, "serve.completed"),
          GaugeOr(w, "serve.p50_ns") / 1e3, GaugeOr(w, "serve.p99_ns") / 1e3,
          GaugeOr(w, "serve.queue_depth"), GaugeOr(w, "serve.inflight"),
          burn.c_str());
    }
    if (p.timeline.dropped() > 0) {
      out += StrFormat("%-24s ... %llu windows past telemetry.max_windows "
                       "dropped\n",
                       name.c_str(),
                       static_cast<unsigned long long>(p.timeline.dropped()));
    }
  }
  return out;
}

trace::IntervalLog BuildServePhases(const std::vector<ServePoint>& points) {
  trace::IntervalLog log;
  // Cut() records deltas against the previous cut, so feed it a running
  // accumulation of the points' registries: each phase's deltas are then
  // exactly that point's own contribution. Phases tile a synthetic
  // timeline where each point occupies its simulated horizon.
  StatRegistry cum;
  Tick clock = 0;
  for (const ServePoint& p : points) {
    cum.Merge(p.raw);
    const Tick dur = NsToTicks(p.horizon_ns);
    log.Cut(StrFormat("%s@qps=%.0f", p.config_name.c_str(), p.qps), clock,
            clock + dur, cum);
    clock += dur;
  }
  return log;
}

}  // namespace graphpim::serve
