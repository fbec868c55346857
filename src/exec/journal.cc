#include "exec/journal.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

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

// ---------------------------------------------------------------------------
// Minimal parser for the JSON subset this file emits: objects, arrays,
// strings, numbers. Numbers keep their raw token so the consumer chooses
// strtoull vs strtod (full 64-bit seeds must not round-trip through a
// double). Any syntax outside the subset fails the line.

struct JVal {
  enum class Kind { kObj, kArr, kStr, kNum };
  Kind kind = Kind::kNum;
  std::vector<std::pair<std::string, JVal>> obj;
  std::vector<JVal> arr;
  std::string text;  // decoded string (kStr) or raw token (kNum)

  const JVal* Get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double Num() const { return std::strtod(text.c_str(), nullptr); }
  std::uint64_t U64() const { return std::strtoull(text.c_str(), nullptr, 10); }
};

class Parser {
 public:
  explicit Parser(const std::string& s) : p_(s.c_str()), end_(p_ + s.size()) {}

  // Whole-line parse: one value, then nothing but whitespace.
  bool Parse(JVal* out) {
    if (!ParseValue(out)) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) ++p_;
  }

  bool ParseValue(JVal* out) {
    SkipWs();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->kind = JVal::Kind::kStr;
        return ParseString(&out->text);
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JVal* out) {
    out->kind = JVal::Kind::kObj;
    ++p_;  // '{'
    SkipWs();
    if (p_ != end_ && *p_ == '}') { ++p_; return true; }
    while (true) {
      SkipWs();
      std::string key;
      if (p_ == end_ || *p_ != '"' || !ParseString(&key)) return false;
      SkipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      JVal v;
      if (!ParseValue(&v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == '}') { ++p_; return true; }
      return false;
    }
  }

  bool ParseArray(JVal* out) {
    out->kind = JVal::Kind::kArr;
    ++p_;  // '['
    SkipWs();
    if (p_ != end_ && *p_ == ']') { ++p_; return true; }
    while (true) {
      JVal v;
      if (!ParseValue(&v)) return false;
      out->arr.push_back(std::move(v));
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == ']') { ++p_; return true; }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    ++p_;  // '"'
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'u': {
            if (end_ - p_ < 5) return false;
            char hex[5] = {p_[1], p_[2], p_[3], p_[4], '\0'};
            char* hend = nullptr;
            unsigned long cp = std::strtoul(hex, &hend, 16);
            if (hend != hex + 4 || cp > 0xff) return false;  // we only emit 00XX
            *out += static_cast<char>(cp);
            p_ += 4;
            break;
          }
          default: return false;
        }
        ++p_;
      } else {
        *out += *p_++;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing '"'
    return true;
  }

  bool ParseNumber(JVal* out) {
    out->kind = JVal::Kind::kNum;
    const char* start = p_;
    while (p_ != end_ &&
           (std::strchr("+-.0123456789eE", *p_) != nullptr)) {
      ++p_;
    }
    if (p_ == start) return false;
    out->text.assign(start, static_cast<std::size_t>(p_ - start));
    return true;
  }

  const char* p_;
  const char* end_;
};

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

bool ResultsFromJson(const JVal& v, core::SimResults* r) {
  if (v.kind != JVal::Kind::kObj) return false;
  auto str = [&](const char* k, std::string* out) {
    const JVal* f = v.Get(k);
    if (f == nullptr || f->kind != JVal::Kind::kStr) return false;
    *out = f->text;
    return true;
  };
  auto u64 = [&](const char* k, std::uint64_t* out) {
    const JVal* f = v.Get(k);
    if (f == nullptr || f->kind != JVal::Kind::kNum) return false;
    *out = f->U64();
    return true;
  };
  auto dbl = [&](const char* k, double* out) {
    const JVal* f = v.Get(k);
    if (f == nullptr || f->kind != JVal::Kind::kNum) return false;
    *out = f->Num();
    return true;
  };
  if (!str("mode", &r->mode)) return false;
  if (!u64("cycles", &r->cycles) || !u64("insts", &r->insts)) return false;
  if (!dbl("seconds", &r->seconds) || !dbl("ipc", &r->ipc)) return false;
  if (!dbl("l1", &r->l1_mpki) || !dbl("l2", &r->l2_mpki) ||
      !dbl("l3", &r->l3_mpki)) {
    return false;
  }
  if (!dbl("amr", &r->atomic_miss_rate)) return false;
  if (!u64("atomics", &r->atomics) || !u64("offloaded", &r->offloaded_atomics))
    return false;
  if (!dbl("reqf", &r->req_flits) || !dbl("respf", &r->resp_flits)) return false;
  if (!u64("crc", &r->link_crc_errors) || !u64("retries", &r->link_retries) ||
      !dbl("retryf", &r->retry_flits) || !u64("poisoned", &r->poisoned_ops) ||
      !u64("stalls", &r->vault_stalls)) {
    return false;
  }
  const JVal* fr = v.Get("fractions");
  if (fr == nullptr || fr->kind != JVal::Kind::kArr || fr->arr.size() != 8)
    return false;
  for (const JVal& e : fr->arr) {
    if (e.kind != JVal::Kind::kNum) return false;
  }
  r->frac_atomic_incore = fr->arr[0].Num();
  r->frac_atomic_incache = fr->arr[1].Num();
  r->frac_atomic_dep = fr->arr[2].Num();
  r->frac_other = fr->arr[3].Num();
  r->frac_frontend = fr->arr[4].Num();
  r->frac_badspec = fr->arr[5].Num();
  r->frac_retiring = fr->arr[6].Num();
  r->frac_backend = fr->arr[7].Num();
  const JVal* en = v.Get("energy");
  if (en == nullptr || en->kind != JVal::Kind::kArr || en->arr.size() != 5)
    return false;
  for (const JVal& e : en->arr) {
    if (e.kind != JVal::Kind::kNum) return false;
  }
  r->energy.caches_j = en->arr[0].Num();
  r->energy.link_j = en->arr[1].Num();
  r->energy.fu_j = en->arr[2].Num();
  r->energy.logic_j = en->arr[3].Num();
  r->energy.dram_j = en->arr[4].Num();
  const JVal* cnt = v.Get("counters");
  if (cnt == nullptr || cnt->kind != JVal::Kind::kObj) return false;
  for (const auto& [k, cv] : cnt->obj) {
    if (cv.kind != JVal::Kind::kNum) return false;
    r->raw.Set(k, cv.Num());
  }
  return true;
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

bool RowFromJson(const std::string& line, SweepRow* row) {
  JVal v;
  Parser parser(line);
  if (!parser.Parse(&v) || v.kind != JVal::Kind::kObj) return false;
  const JVal* f = nullptr;
  if ((f = v.Get("w")) == nullptr || f->kind != JVal::Kind::kNum) return false;
  row->workload_idx = static_cast<std::size_t>(f->U64());
  if ((f = v.Get("p")) == nullptr || f->kind != JVal::Kind::kNum) return false;
  row->profile_idx = static_cast<std::size_t>(f->U64());
  if ((f = v.Get("c")) == nullptr || f->kind != JVal::Kind::kNum) return false;
  row->config_idx = static_cast<std::size_t>(f->U64());
  if ((f = v.Get("workload")) == nullptr || f->kind != JVal::Kind::kStr)
    return false;
  row->workload = f->text;
  if ((f = v.Get("profile")) == nullptr || f->kind != JVal::Kind::kStr)
    return false;
  row->profile = f->text;
  if ((f = v.Get("config")) == nullptr || f->kind != JVal::Kind::kStr)
    return false;
  row->config_name = f->text;
  if ((f = v.Get("seed")) == nullptr || f->kind != JVal::Kind::kNum)
    return false;
  row->seed = f->U64();
  if ((f = v.Get("wall_ms")) == nullptr || f->kind != JVal::Kind::kNum)
    return false;
  row->wall_ms = f->Num();
  if ((f = v.Get("r")) == nullptr || !ResultsFromJson(*f, &row->results))
    return false;
  row->status = JobStatus::kOk;
  row->from_journal = true;
  return true;
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
  if (torn_tail) std::fputc('\n', f_);
  if (std::ftell(f_) == 0) {
    std::string hdr = "{\"graphpim_sweep_journal\":1,\"fingerprint\":\"" +
                      JsonEscape(fingerprint) + "\"}\n";
    std::fwrite(hdr.data(), 1, hdr.size(), f_);
    std::fflush(f_);
  }
}

void JournalWriter::Append(const SweepRow& row) {
  if (f_ == nullptr) return;
  std::string line = RowToJson(row) + "\n";
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fflush(f_);
}

void JournalWriter::AppendPhases(const SweepRow& row,
                                 const trace::PhaseLog& log) {
  if (f_ == nullptr || log.empty()) return;
  // Sidecar line, keyed by the row's grid coordinates. LoadJournal skips
  // these by prefix without counting them as dropped, so a phase-annotated
  // journal resumes exactly like a plain one.
  std::string s = "{\"phases_for\":{";
  s += "\"w\":" + U(row.workload_idx);
  s += ",\"p\":" + U(row.profile_idx);
  s += ",\"c\":" + U(row.config_idx);
  s += "},\"phases\":[";
  bool first = true;
  for (const trace::PhaseRecord& ph : log.phases()) {
    if (!first) s += ',';
    first = false;
    s += "{\"phase\":\"" + JsonEscape(ph.name) + "\"";
    s += ",\"start_ns\":" + D(TicksToNs(ph.start));
    s += ",\"end_ns\":" + D(TicksToNs(ph.end));
    s += ",\"deltas\":{";
    for (std::size_t i = 0; i < ph.deltas.size(); ++i) {
      if (i != 0) s += ',';
      s += '"' + JsonEscape(ph.deltas[i].first) +
           "\":" + trace::FormatStatValue(ph.deltas[i].second);
    }
    s += "}}";
  }
  s += "]}\n";
  std::fwrite(s.data(), 1, s.size(), f_);
  std::fflush(f_);
}

void JournalWriter::AppendSpans(const SweepRow& row,
                                const trace::SpanLog& log) {
  if (f_ == nullptr || log.empty()) return;
  // Same sidecar convention as AppendPhases: keyed by grid coordinates,
  // skipped by prefix on load.
  std::string s = "{\"spans_for\":{";
  s += "\"w\":" + U(row.workload_idx);
  s += ",\"p\":" + U(row.profile_idx);
  s += ",\"c\":" + U(row.config_idx);
  s += "},\"spans\":[";
  bool first = true;
  for (const trace::SpanRecord& sp : log.spans) {
    if (!first) s += ',';
    first = false;
    s += trace::SpanToJson(sp);
  }
  s += "]}\n";
  std::fwrite(s.data(), 1, s.size(), f_);
  std::fflush(f_);
}

void JournalWriter::AppendTimeline(const SweepRow& row,
                                   const telemetry::Timeline& tl) {
  if (f_ == nullptr || tl.empty()) return;
  // Same sidecar convention as AppendPhases: keyed by grid coordinates,
  // skipped by prefix on load. Window bodies reuse the telemetry JSONL
  // renderer so the sidecar and --timeline-out formats stay in lockstep.
  std::string s = "{\"timeline_for\":{";
  s += "\"w\":" + U(row.workload_idx);
  s += ",\"p\":" + U(row.profile_idx);
  s += ",\"c\":" + U(row.config_idx);
  s += "},\"windows\":[";
  const std::string lines = telemetry::ToJsonl(tl);
  bool first = true;
  for (std::size_t pos = 0; pos < lines.size();) {
    std::size_t nl = lines.find('\n', pos);
    if (nl == std::string::npos) nl = lines.size();
    if (!first) s += ',';
    first = false;
    s.append(lines, pos, nl - pos);
    pos = nl + 1;
  }
  s += "]}\n";
  std::fwrite(s.data(), 1, s.size(), f_);
  std::fflush(f_);
}

void JournalWriter::Close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
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
      JVal v;
      Parser parser(line);
      const JVal* fp = nullptr;
      if (parser.Parse(&v) && v.kind == JVal::Kind::kObj &&
          (fp = v.Get("fingerprint")) != nullptr &&
          fp->kind == JVal::Kind::kStr) {
        out->fingerprint = fp->text;
      } else {
        ++out->dropped_lines;
      }
      continue;
    }
    // Sidecar lines ({"phases_for":...}, {"spans_for":...}) are
    // informational: not rows, not errors — skip without counting them as
    // dropped.
    if (line.compare(0, 14, "{\"phases_for\":") == 0) continue;
    if (line.compare(0, 13, "{\"spans_for\":") == 0) continue;
    if (line.compare(0, 16, "{\"timeline_for\":") == 0) continue;
    SweepRow row;
    if (RowFromJson(line, &row)) {
      out->rows.push_back(std::move(row));
    } else {
      // Malformed or truncated (e.g. SIGKILL mid-write): the row will
      // simply be re-simulated.
      ++out->dropped_lines;
    }
  }
  return true;
}

}  // namespace graphpim::exec
