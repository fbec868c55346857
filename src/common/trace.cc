#include "common/trace.h"

#include <cmath>

#include "common/file_util.h"
#include "common/log.h"
#include "common/string_util.h"

namespace graphpim::trace {

namespace {

// Ticks are picoseconds; Chrome trace timestamps are microseconds.
double TickToUs(Tick t) { return static_cast<double>(t) / 1e6; }

// Appends `items` as the members of a JSON object: "k":v,"k":v.
void AppendItems(const Items& items, std::string* out) {
  bool first = true;
  for (const auto& [k, v] : items) {
    if (!first) *out += ',';
    first = false;
    *out += '"' + JsonEscape(k) + "\":" + FormatStatValue(v);
  }
}

// Every counter track sits on pid 1 beside the phase slices; pids 2-4 are
// the span renderer's cores, cubes and vaults.
std::string CounterEvent(const std::string& name, Tick ts, const char* arg,
                         double v) {
  return StrFormat(
      "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.6f,"
      "\"args\":{\"%s\":%s}}",
      JsonEscape(name).c_str(), TickToUs(ts), arg, FormatStatValue(v).c_str());
}

}  // namespace

std::string FormatStatValue(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15) {
    return StrFormat("%.0f", v);
  }
  return StrFormat("%.6g", v);
}

IntervalLog::IntervalLog(Tick window, std::uint64_t max_windows,
                         GaugeSampler gauges)
    : window_(window),
      next_boundary_(window),
      max_windows_(max_windows),
      gauges_(std::move(gauges)) {
  GP_CHECK(window > 0, "a telemetry window must be at least one tick");
}

Items IntervalLog::DeltasSince(const StatRegistry* reg) {
  if (reg == nullptr) return {};
  StatSnapshot now = reg->Snapshot();
  Items deltas = DeltaItems(now, prev_);
  prev_ = std::move(now);
  return deltas;
}

void IntervalLog::Cut(std::string name, Tick start, Tick end,
                      const StatRegistry& reg) {
  GP_CHECK(!windowed(), "Cut on a window log");
  intervals_.push_back({std::move(name), start, end, DeltasSince(&reg), {}});
}

void IntervalLog::CutWindow(Tick start, Tick end, Items deltas) {
  if (max_windows_ != 0 && intervals_.size() >= max_windows_) {
    ++dropped_;
    return;
  }
  Interval w{std::string(), start, end, std::move(deltas), {}};
  if (gauges_) gauges_(start, end, &w.gauges);
  intervals_.push_back(std::move(w));
}

void IntervalLog::AdvanceTo(Tick now, const StatRegistry* reg) {
  GP_CHECK(windowed(), "AdvanceTo on a barrier log");
  if (now < next_boundary_) return;
  Items deltas = DeltasSince(reg);
  for (; next_boundary_ <= now; next_boundary_ += window_) {
    CutWindow(next_boundary_ - window_, next_boundary_,
              std::exchange(deltas, Items()));
  }
}

void IntervalLog::Finish(Tick end, const StatRegistry* reg) {
  if (finished_) return;
  finished_ = true;
  AdvanceTo(end, reg);
  const Tick start = next_boundary_ - window_;
  if (end > start || intervals_.empty()) {
    CutWindow(start, end, DeltasSince(reg));
  }
  gauges_ = nullptr;
}

std::string ToJsonl(const IntervalLog& log, const std::string& point) {
  std::string out;
  const std::vector<Interval>& ivs = log.intervals();
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    const Interval& iv = ivs[i];
    out += '{';
    if (!point.empty()) out += "\"point\":\"" + JsonEscape(point) + "\",";
    if (log.windowed()) {
      out += StrFormat("\"window\":%zu", i);
    } else {
      out += "\"phase\":\"" + JsonEscape(iv.name) + '"';
    }
    out += StrFormat(",\"start_ns\":%.3f,\"end_ns\":%.3f,\"deltas\":{",
                     TicksToNs(iv.start), TicksToNs(iv.end));
    AppendItems(iv.deltas, &out);
    if (log.windowed()) {
      out += "},\"gauges\":{";
      AppendItems(iv.gauges, &out);
    }
    out += "}}\n";
  }
  return out;
}

std::string ToChromeEvents(const IntervalLog& log, const std::string& prefix) {
  std::string out;
  auto emit = [&out](const std::string& event) {
    if (!out.empty()) out += ',';
    out += '\n';
    out += event;
  };
  const std::string delta_prefix = prefix + (log.windowed() ? "tele:" : "");
  for (const Interval& iv : log.intervals()) {
    if (!log.windowed()) {
      std::string ev = StrFormat(
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          "\"ts\":%.6f,\"dur\":%.6f,\"args\":{",
          JsonEscape(prefix + iv.name).c_str(), TickToUs(iv.start),
          TickToUs(iv.end) - TickToUs(iv.start));
      AppendItems(iv.deltas, &ev);
      ev += "}}";
      emit(ev);
    }
    // One counter ("C") event per value so Perfetto draws counter tracks.
    for (const auto& [k, v] : iv.deltas) {
      emit(CounterEvent(delta_prefix + k, iv.end, "delta", v));
    }
    for (const auto& [k, v] : iv.gauges) {
      emit(CounterEvent(prefix + k, iv.end, "value", v));
    }
  }
  return out;
}

std::string ToChromeTrace(const std::vector<std::string>& fragments) {
  std::string events;
  for (const std::string& f : fragments) {
    if (f.empty()) continue;
    if (!events.empty()) events += ',';
    events += f;
  }
  // The empty document must still be strict JSON: "traceEvents":[] with no
  // stray newline inside the array.
  return "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[" + events +
         (events.empty() ? "]}\n" : "\n]}\n");
}

void WriteTrace(const std::string& path,
                const std::vector<std::string>& fragments,
                const std::string& jsonl) {
  const bool is_jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  WriteWholeFile(path, is_jsonl ? jsonl : ToChromeTrace(fragments));
}

void RequireSink(double window_ns, bool has_sink, const char* hint) {
  if (window_ns > 0.0 && !has_sink) {
    GP_THROW("telemetry.window_ns=", window_ns,
             " but no telemetry sink is attached: ", hint);
  }
}

}  // namespace graphpim::trace
