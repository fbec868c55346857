#include "exec/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/json.h"
#include "common/log.h"
#include "common/string_util.h"

namespace graphpim::exec {

namespace {

// %.17g round-trips every finite double exactly; %llu keeps full-range
// 64-bit seeds intact (a double detour would silently lose low bits).
std::string D(double v) { return StrFormat("%.17g", v); }
std::string U(std::uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

// Opens a sidecar line keyed by the row's grid coordinates:
// {"<kind>_for":{"w":W,"p":P,"c":C},"<list>":[
std::string SidecarHead(const std::string& kind, const SweepRow& row,
                        const std::string& list) {
  return "{\"" + kind + "_for\":{\"w\":" + U(row.workload_idx) +
         ",\"p\":" + U(row.profile_idx) + ",\"c\":" + U(row.config_idx) +
         "},\"" + list + "\":[";
}

// ---------------------------------------------------------------------------
// Row <-> line.

// A row's results are its end tick and its full registry; on load,
// core::Summarize derives every other field from them. AllItems, because
// the compatibility Items() view would drop the core.* totals.
std::string ResultsToJson(const core::SimResults& r) {
  std::string s = "{\"end_tick\":" + U(r.end_tick) + ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : r.raw.AllItems()) {
    if (!first) s += ',';
    first = false;
    s += '"' + JsonEscape(k) + "\":" + D(v);
  }
  s += "}}";
  return s;
}

std::string RowToJson(const SweepRow& row) {
  std::string s = "{";
  s += "\"w\":" + U(row.workload_idx);
  s += ",\"p\":" + U(row.profile_idx);
  s += ",\"c\":" + U(row.config_idx);
  s += ",\"workload\":\"" + JsonEscape(row.workload) + "\"";
  s += ",\"profile\":\"" + JsonEscape(row.profile) + "\"";
  s += ",\"config\":\"" + JsonEscape(row.config_name) + "\"";
  s += ",\"seed\":" + U(row.seed);
  s += ",\"wall_ms\":" + D(row.wall_ms);
  s += ",\"r\":" + ResultsToJson(row.results);
  s += "}";
  return s;
}

// Typed field reads for the row reader. A missing field, or a value of
// the wrong kind or range, throws SimError, and LoadJournal drops the line.
const json::Value& Field(const json::Value& obj, const char* key) {
  const json::Value* f = obj.Find(key);
  if (f == nullptr) GP_THROW("journal line lacks '", key, "'");
  return *f;
}

std::string Str(const json::Value& obj, const char* key) {
  const json::Value& f = Field(obj, key);
  if (!f.is(json::Value::Kind::kString)) {
    GP_THROW("journal field '", key, "' is not a string");
  }
  return f.text;
}

std::uint64_t U64(const json::Value& obj, const char* key) {
  return Field(obj, key).U64();
}

SweepRow RowFromJson(const json::Value& v, const SweepGrid& grid) {
  SweepRow row;
  row.workload_idx = static_cast<std::size_t>(U64(v, "w"));
  row.profile_idx = static_cast<std::size_t>(U64(v, "p"));
  row.config_idx = static_cast<std::size_t>(U64(v, "c"));
  row.workload = Str(v, "workload");
  row.profile = Str(v, "profile");
  row.config_name = Str(v, "config");
  row.seed = U64(v, "seed");
  row.wall_ms = Field(v, "wall_ms").Double();
  // A row restores only into the cell it was simulated for: its names and
  // seed must be the ones this grid gives its coordinates. Any other row
  // (an edited or corrupted index) is dropped and re-simulated.
  if (row.workload_idx >= grid.workloads.size() ||
      row.profile_idx >= grid.profiles.size() ||
      row.config_idx >= grid.configs.size() ||
      row.workload != grid.workloads[row.workload_idx] ||
      row.profile != grid.profiles[row.profile_idx] ||
      row.config_name != grid.config_names[row.config_idx] ||
      row.seed != DeriveCellSeed(grid.base_seed, row.workload_idx,
                                 row.profile_idx)) {
    GP_THROW("journal row does not match its grid cell");
  }
  const json::Value& r = Field(v, "r");
  const json::Value& counters = Field(r, "counters");
  if (!counters.is(json::Value::Kind::kObject)) {
    GP_THROW("journal field 'counters' is not an object");
  }
  StatRegistry raw;
  for (const auto& [k, c] : counters.members) raw.Set(k, c.Double());
  row.results = core::Summarize(grid.configs[row.config_idx], std::move(raw),
                                U64(r, "end_tick"));
  row.status = JobStatus::kOk;
  row.from_journal = true;
  return row;
}

}  // namespace

std::string GridFingerprint(const SweepGrid& grid) {
  // v3: a row's results are its end tick and its registry, from which
  // core::Summarize rebuilds the derived fields. Bumping the version makes
  // a v2 journal, whose rows carry the derived fields and no end tick, a
  // fingerprint mismatch rather than a file of dropped rows.
  std::string fp = "v3|w=";
  for (std::size_t i = 0; i < grid.workloads.size(); ++i) {
    if (i != 0) fp += ',';
    fp += grid.workloads[i];
  }
  fp += "|p=";
  for (std::size_t i = 0; i < grid.profiles.size(); ++i) {
    if (i != 0) fp += ',';
    fp += grid.profiles[i];
  }
  fp += "|c=";
  for (std::size_t i = 0; i < grid.configs.size(); ++i) {
    if (i != 0) fp += ',';
    fp += grid.config_names[i];
    fp += '{';
    fp += grid.configs[i].Describe();
    fp += ';';
    fp += grid.configs[i].hmc.fault.Describe();
    fp += '}';
  }
  fp += StrFormat("|n=%llu|t=%d|cap=%llu|seed=%llu",
                  static_cast<unsigned long long>(grid.vertices),
                  grid.sim_threads,
                  static_cast<unsigned long long>(grid.op_cap),
                  static_cast<unsigned long long>(grid.base_seed));
  return fp;
}

void JournalWriter::Open(const std::string& path,
                         const std::string& fingerprint) {
  Close();
  // A SIGKILL mid-write can leave a torn final line with no newline. If we
  // appended straight after it, the next row would fuse with the fragment
  // and BOTH would be dropped as one malformed line on the next load — so
  // seal the tear with a newline before appending anything.
  bool torn_tail = false;
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    if (std::fseek(probe, -1, SEEK_END) == 0) {
      torn_tail = std::fgetc(probe) != '\n';
    }
    std::fclose(probe);
  }
  // "a" keeps rows already journaled by an interrupted run; ftell tells us
  // whether a header is still needed.
  f_ = std::fopen(path.c_str(), "a");
  if (f_ == nullptr) {
    GP_THROW("cannot open sweep journal '", path, "' for append");
  }
  path_ = path;
  if (torn_tail) Write("\n");
  if (std::ftell(f_) == 0) {
    Write("{\"graphpim_sweep_journal\":1,\"fingerprint\":\"" +
          JsonEscape(fingerprint) + "\"}\n");
  }
}

void JournalWriter::Write(const std::string& s) {
  if (std::fwrite(s.data(), 1, s.size(), f_) != s.size() ||
      std::fflush(f_) != 0) {
    GP_THROW("cannot write sweep journal '", path_, "': ",
             std::strerror(errno));
  }
}

void JournalWriter::Append(const SweepRow& row) {
  if (f_ == nullptr) return;
  Write(RowToJson(row) + "\n");
}

void JournalWriter::AppendIntervals(const std::string& kind,
                                    const std::string& list,
                                    const SweepRow& row,
                                    const trace::IntervalLog& log) {
  if (f_ == nullptr || log.empty()) return;
  // The sidecar embeds the --metrics-out / --timeline-out JSONL objects,
  // so the formats stay in lockstep. A JSON string escapes every newline,
  // so the only newlines are the line ends.
  std::string body = trace::ToJsonl(log);
  body.pop_back();
  std::replace(body.begin(), body.end(), '\n', ',');
  Write(SidecarHead(kind, row, list) + body + "]}\n");
}

void JournalWriter::AppendSpans(const SweepRow& row,
                                const trace::SpanLog& log) {
  if (f_ == nullptr || log.empty()) return;
  std::string s = SidecarHead("spans", row, "spans");
  bool first = true;
  for (const trace::SpanRecord& sp : log.spans) {
    if (!first) s += ',';
    first = false;
    s += trace::SpanToJson(sp);
  }
  s += "]}\n";
  Write(s);
}

void JournalWriter::Close() {
  std::FILE* f = std::exchange(f_, nullptr);
  if (f != nullptr && std::fclose(f) != 0) {
    GP_THROW("cannot close sweep journal '", path_, "': ",
             std::strerror(errno));
  }
}

bool LoadJournal(const std::string& path, const SweepGrid& grid,
                 JournalData* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      try {
        out->fingerprint = Str(json::Parse(line), "fingerprint");
      } catch (const SimError&) {
        ++out->dropped_lines;
      }
      continue;
    }
    // Sidecar lines ({"phases_for":...}, {"spans_for":...},
    // {"timeline_for":...}) are per-row annotations: not rows, not errors —
    // skip without counting them as dropped.
    if (line.compare(0, 14, "{\"phases_for\":") == 0) continue;
    if (line.compare(0, 13, "{\"spans_for\":") == 0) continue;
    if (line.compare(0, 16, "{\"timeline_for\":") == 0) continue;
    try {
      out->rows.push_back(RowFromJson(json::Parse(line), grid));
    } catch (const SimError&) {
      // Malformed, truncated (e.g. SIGKILL mid-write) or foreign to its
      // cell: the row will simply be re-simulated.
      ++out->dropped_lines;
    }
  }
  return true;
}

}  // namespace graphpim::exec
