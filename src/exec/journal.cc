#include "exec/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <initializer_list>
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

std::string ResultsToJson(const core::SimResults& r) {
  std::string s = "{";
  s += "\"mode\":\"" + JsonEscape(r.mode) + "\"";
  s += ",\"cycles\":" + U(r.cycles);
  s += ",\"insts\":" + U(r.insts);
  s += ",\"seconds\":" + D(r.seconds);
  s += ",\"ipc\":" + D(r.ipc);
  s += ",\"l1\":" + D(r.l1_mpki) + ",\"l2\":" + D(r.l2_mpki) +
       ",\"l3\":" + D(r.l3_mpki);
  s += ",\"amr\":" + D(r.atomic_miss_rate);
  s += ",\"atomics\":" + U(r.atomics);
  s += ",\"offloaded\":" + U(r.offloaded_atomics);
  s += ",\"reqf\":" + D(r.req_flits) + ",\"respf\":" + D(r.resp_flits);
  s += ",\"crc\":" + U(r.link_crc_errors);
  s += ",\"retries\":" + U(r.link_retries);
  s += ",\"retryf\":" + D(r.retry_flits);
  s += ",\"poisoned\":" + U(r.poisoned_ops);
  s += ",\"stalls\":" + U(r.vault_stalls);
  s += ",\"fractions\":[" + D(r.frac_atomic_incore) + ',' +
       D(r.frac_atomic_incache) + ',' + D(r.frac_atomic_dep) + ',' +
       D(r.frac_other) + ',' + D(r.frac_frontend) + ',' + D(r.frac_badspec) +
       ',' + D(r.frac_retiring) + ',' + D(r.frac_backend) + ']';
  s += ",\"energy\":[" + D(r.energy.caches_j) + ',' + D(r.energy.link_j) +
       ',' + D(r.energy.fu_j) + ',' + D(r.energy.logic_j) + ',' +
       D(r.energy.dram_j) + ']';
  // The full registry, merged "core." totals included — the compatibility
  // Items() view would silently drop them from the round trip.
  s += ",\"counters\":{";
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

// Typed field reads shared by the row and results readers. A missing
// field, or a value of the wrong kind or range, throws SimError, and
// LoadJournal drops the line.
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

double Dbl(const json::Value& obj, const char* key) {
  return Field(obj, key).Double();
}

// Reads the fixed-length number array `key` into `outs`, in order.
void Dbls(const json::Value& obj, const char* key,
          std::initializer_list<double*> outs) {
  const json::Value& a = Field(obj, key);
  if (!a.is(json::Value::Kind::kArray) || a.items.size() != outs.size()) {
    GP_THROW("journal field '", key, "' is not ", outs.size(), " numbers");
  }
  const json::Value* item = a.items.data();
  for (double* out : outs) *out = (item++)->Double();
}

core::SimResults ResultsFromJson(const json::Value& v) {
  core::SimResults r;
  r.mode = Str(v, "mode");
  r.cycles = U64(v, "cycles");
  r.insts = U64(v, "insts");
  r.seconds = Dbl(v, "seconds");
  r.ipc = Dbl(v, "ipc");
  r.l1_mpki = Dbl(v, "l1");
  r.l2_mpki = Dbl(v, "l2");
  r.l3_mpki = Dbl(v, "l3");
  r.atomic_miss_rate = Dbl(v, "amr");
  r.atomics = U64(v, "atomics");
  r.offloaded_atomics = U64(v, "offloaded");
  r.req_flits = Dbl(v, "reqf");
  r.resp_flits = Dbl(v, "respf");
  r.link_crc_errors = U64(v, "crc");
  r.link_retries = U64(v, "retries");
  r.retry_flits = Dbl(v, "retryf");
  r.poisoned_ops = U64(v, "poisoned");
  r.vault_stalls = U64(v, "stalls");
  Dbls(v, "fractions",
       {&r.frac_atomic_incore, &r.frac_atomic_incache, &r.frac_atomic_dep,
        &r.frac_other, &r.frac_frontend, &r.frac_badspec, &r.frac_retiring,
        &r.frac_backend});
  Dbls(v, "energy",
       {&r.energy.caches_j, &r.energy.link_j, &r.energy.fu_j,
        &r.energy.logic_j, &r.energy.dram_j});
  const json::Value& counters = Field(v, "counters");
  if (!counters.is(json::Value::Kind::kObject)) {
    GP_THROW("journal field 'counters' is not an object");
  }
  for (const auto& [k, c] : counters.members) r.raw.Set(k, c.Double());
  return r;
}

SweepRow RowFromJson(const json::Value& v) {
  SweepRow row;
  row.workload_idx = static_cast<std::size_t>(U64(v, "w"));
  row.profile_idx = static_cast<std::size_t>(U64(v, "p"));
  row.config_idx = static_cast<std::size_t>(U64(v, "c"));
  row.workload = Str(v, "workload");
  row.profile = Str(v, "profile");
  row.config_name = Str(v, "config");
  row.seed = U64(v, "seed");
  row.wall_ms = Dbl(v, "wall_ms");
  row.results = ResultsFromJson(Field(v, "r"));
  row.status = JobStatus::kOk;
  row.from_journal = true;
  return row;
}

}  // namespace

std::string GridFingerprint(const SweepGrid& grid) {
  // v2: rows serialize the unified registry ("counters" includes the
  // merged core.* totals; the legacy fixed-order "core" array is gone).
  // Bumping the version makes pre-registry journals mismatch cleanly
  // instead of resuming with silently core-less rows.
  std::string fp = "v2|w=";
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

bool LoadJournal(const std::string& path, JournalData* out) {
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
      out->rows.push_back(RowFromJson(json::Parse(line)));
    } catch (const SimError&) {
      // Malformed or truncated (e.g. SIGKILL mid-write): the row will
      // simply be re-simulated.
      ++out->dropped_lines;
    }
  }
  return true;
}

}  // namespace graphpim::exec
