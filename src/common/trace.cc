#include "common/trace.h"

#include <cmath>

#include "common/file_util.h"
#include "common/string_util.h"

namespace graphpim::trace {

namespace {

// Ticks are picoseconds; Chrome trace timestamps are microseconds.
double TickToUs(Tick t) { return static_cast<double>(t) / 1e6; }

double TickToNs(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

}  // namespace

std::string FormatStatValue(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15) {
    return StrFormat("%.0f", v);
  }
  return StrFormat("%.6g", v);
}

void PhaseLog::Cut(std::string name, Tick start, Tick end,
                   const StatRegistry& reg) {
  StatSnapshot now = reg.Snapshot();
  PhaseRecord rec;
  rec.name = std::move(name);
  rec.start = start;
  rec.end = end;
  rec.deltas = DeltaItems(now, prev_);
  prev_ = std::move(now);
  phases_.push_back(std::move(rec));
}

void PhaseLog::Clear() {
  phases_.clear();
  prev_ = StatSnapshot();
}

std::string ToChromeTrace(const PhaseLog& log, const SpanLog* spans) {
  TraceExtras extras;
  extras.spans = spans;
  return ToChromeTrace(log, extras);
}

std::string ToChromeTrace(const PhaseLog& log, const TraceExtras& extras) {
  const SpanLog* spans = extras.spans;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    out += event;
  };
  for (const auto& ph : log.phases()) {
    // One complete ("X") slice per phase, deltas attached as args.
    std::string ev = StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":%.6f,\"dur\":%.6f,\"args\":{",
        JsonEscape(ph.name).c_str(), TickToUs(ph.start),
        TickToUs(ph.end) - TickToUs(ph.start));
    bool farg = true;
    for (const auto& [k, v] : ph.deltas) {
      if (!farg) ev += ',';
      farg = false;
      ev += '"' + JsonEscape(k) + "\":" + FormatStatValue(v);
    }
    ev += "}}";
    emit(ev);
    // One counter ("C") event per delta so Perfetto draws counter tracks.
    for (const auto& [k, v] : ph.deltas) {
      emit(StrFormat(
          "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.6f,"
          "\"args\":{\"delta\":%s}}",
          JsonEscape(k).c_str(), TickToUs(ph.end),
          FormatStatValue(v).c_str()));
    }
  }
  if (spans != nullptr && !spans->empty()) {
    const std::string events = SpansToChromeEvents(*spans);
    if (!events.empty()) {
      if (!first) out += ',';
      first = false;
      out += events;
    }
  }
  if (!extras.chrome_events.empty()) {
    if (!first) out += ',';
    first = false;
    out += extras.chrome_events;
  }
  // The empty document must still be strict JSON: "traceEvents":[] with no
  // stray newline inside the array.
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

std::string ToJsonl(const PhaseLog& log) {
  std::string out;
  for (const auto& ph : log.phases()) {
    out += StrFormat("{\"phase\":\"%s\",\"start_ns\":%.3f,\"end_ns\":%.3f,\"deltas\":{",
                     JsonEscape(ph.name).c_str(), TickToNs(ph.start),
                     TickToNs(ph.end));
    bool first = true;
    for (const auto& [k, v] : ph.deltas) {
      if (!first) out += ',';
      first = false;
      out += '"' + JsonEscape(k) + "\":" + FormatStatValue(v);
    }
    out += "}}\n";
  }
  return out;
}

void WriteTrace(const PhaseLog& log, const std::string& path,
                const TraceExtras& extras) {
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  if (!jsonl) {
    WriteWholeFile(path, ToChromeTrace(log, extras));
    return;
  }
  std::string out = ToJsonl(log);
  if (extras.spans != nullptr) out += SpansToJsonl(*extras.spans);
  out += extras.jsonl_lines;
  WriteWholeFile(path, out);
}

}  // namespace graphpim::trace
