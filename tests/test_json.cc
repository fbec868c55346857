// Tests for the strict JSON reader (common/json.h): every artifact the repo
// writes parses, input outside RFC 8259 is rejected at the offending byte,
// number conversions are strict, the sweep journal and the regression
// sentinel turn corrupt or hostile input into dropped lines or SimError,
// and a deterministic SplitMix64 mutation fuzzer shows that no mutant of
// a seed artifact does anything but parse or throw SimError.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/random.h"
#include "common/span.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/report.h"
#include "core/runner.h"
#include "exec/journal.h"
#include "exec/result_sink.h"
#include "exec/sweep.h"
#include "telemetry/compare.h"
#include "mutate.h"

namespace graphpim {
namespace {

using json::Value;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& l : lines) out << l << '\n';
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Bench0008() {
  return ReadFile(std::string(GRAPHPIM_SOURCE_DIR) + "/BENCH_0008.json");
}

// A 2-workload x 2-mode grid small enough for unit tests. Spans and
// telemetry windows are on, so a journal with phases on carries every
// sidecar kind.
exec::SweepGrid TinyGrid() {
  exec::SweepGrid g = exec::ParseGridSpec(
      "workloads=bfs,prank;modes=baseline,graphpim;"
      "trace.sample_rate=0.05;telemetry.window_ns=5000");
  g.vertices = 512;
  g.sim_threads = 2;
  g.op_cap = 10'000;
  for (core::SimConfig& c : g.configs) c.num_cores = 2;
  return g;
}

exec::SweepResultTable RunJournaled(const exec::SweepGrid& g,
                                    const std::string& path,
                                    bool resume = false) {
  exec::SweepRunner::Options opts;
  opts.jobs = 2;
  opts.journal_path = path;
  opts.journal_phases = true;
  opts.resume = resume;
  return exec::SweepRunner(opts).Run(g);
}

// The bare message of the SimError `text` raises, or "parsed".
std::string ParseError(std::string_view text) {
  try {
    json::Parse(text);
  } catch (const SimError& e) {
    return e.message();
  }
  return "parsed";
}

// ---------------------------------------------------------------------------
// Accepted input.

TEST(Json, ParsesEveryArtifactTheRepoWrites) {
  // Sweep journal with phases_for, spans_for and timeline_for sidecars, and
  // the sweep JSON sink.
  const std::string path = TempPath("gp_json_artifacts.jsonl");
  std::remove(path.c_str());
  const exec::SweepResultTable table = RunJournaled(TinyGrid(), path);
  ASSERT_EQ(table.failed_rows, 0u);
  std::size_t phases = 0, spans = 0, windows = 0;
  for (const std::string& line : Lines(ReadFile(path))) {
    EXPECT_NO_THROW(json::Parse(line)) << line.substr(0, 200);
    phases += StartsWith(line, "{\"phases_for\":");
    spans += StartsWith(line, "{\"spans_for\":");
    windows += StartsWith(line, "{\"timeline_for\":");
  }
  EXPECT_EQ(phases, table.rows.size());
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(windows, table.rows.size());
  const Value sink = json::Parse(exec::ToJson(table));
  EXPECT_TRUE(sink.is(Value::Kind::kObject));
  std::remove(path.c_str());

  // A --metrics-out Chrome trace with spans and telemetry counter tracks,
  // assembled the way graphpim_sim writes it, and the timeline JSONL.
  core::Experiment::Options eo;
  eo.num_threads = 2;
  eo.seed = 3;
  eo.op_cap = 10'000;
  core::Experiment exp("ldbc", 512, "bfs", eo);
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = 2;
  sc.trace_sample_rate = 0.05;
  sc.telemetry_window_ns = 5000.0;
  trace::IntervalLog phase_log;
  trace::SpanLog span_log;
  trace::IntervalLog timeline;
  core::RunOptions ro;
  ro.phases = &phase_log;
  ro.spans = &span_log;
  ro.timeline = &timeline;
  exp.Run(sc, ro);
  ASSERT_FALSE(span_log.empty());
  ASSERT_FALSE(timeline.empty());
  const Value chrome = json::Parse(trace::ToChromeTrace(
      {trace::ToChromeEvents(phase_log), trace::SpansToChromeEvents(span_log),
       trace::ToChromeEvents(timeline)}));
  const Value* events = chrome.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Counter tracks sit beside the phase track, never inside a process the
  // span renderer names (cores, cubes, vaults).
  std::set<std::uint64_t> named_pids;
  for (const Value& e : events->items) {
    if (e.Find("name")->text == "process_name") {
      named_pids.insert(e.Find("pid")->U64());
    }
  }
  EXPECT_FALSE(named_pids.empty());
  std::size_t counters = 0;
  for (const Value& e : events->items) {
    const Value* ph = e.Find("ph");
    if (ph == nullptr || ph->text != "C") continue;
    ++counters;
    EXPECT_EQ(named_pids.count(e.Find("pid")->U64()), 0u)
        << e.Find("name")->text;
  }
  EXPECT_GT(counters, 0u);
  for (const std::string& line : Lines(trace::ToJsonl(timeline, "p0"))) {
    EXPECT_NO_THROW(json::Parse(line)) << line;
  }
}

TEST(Json, ParsesBench0008) {
  const Value bench = json::Parse(Bench0008());
  ASSERT_NE(bench.Find("cycles"), nullptr);
  EXPECT_EQ(bench.Find("cycles")->U64(), 19551196u);
  EXPECT_EQ(bench.Find("trace_peak_bytes")->U64(), 108179072u);
  EXPECT_EQ(bench.Find("bench")->text, "BENCH_0008");
}

TEST(Json, AcceptsEdgeValues) {
  const Value neg_zero = json::Parse("-0");
  EXPECT_EQ(neg_zero.text, "-0");
  EXPECT_EQ(neg_zero.Double(), 0.0);
  EXPECT_TRUE(std::signbit(neg_zero.Double()));
  EXPECT_EQ(json::Parse("1e+06").Double(), 1e6);
  EXPECT_EQ(json::Parse("\"\\u001f\"").text, "\x1f");
  EXPECT_EQ(json::Parse("\"\\ud83d\\ude00\"").text, "\xF0\x9F\x98\x80");
  EXPECT_EQ(json::Parse("\"\\u00e9\\u20ac\"").text, "\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(json::Parse(R"("\"\\\/\b\f\n\r\t")").text, "\"\\/\b\f\n\r\t");
  EXPECT_TRUE(json::Parse(" \t\r\n null \n").is(Value::Kind::kNull));
  EXPECT_TRUE(json::Parse("true").boolean);
  EXPECT_FALSE(json::Parse("false").boolean);
  EXPECT_TRUE(json::Parse("[]").items.empty());
  EXPECT_TRUE(json::Parse("{}").members.empty());

  // Objects keep document order, duplicates included; Find takes the first.
  const Value obj = json::Parse(R"({"b":1,"a":[2,3],"b":4})");
  ASSERT_EQ(obj.members.size(), 3u);
  EXPECT_EQ(obj.members[1].first, "a");
  EXPECT_EQ(obj.Find("b")->U64(), 1u);
  EXPECT_EQ(obj.Find("a")->items[1].U64(), 3u);
  EXPECT_EQ(obj.Find("missing"), nullptr);
  EXPECT_EQ(obj.Find("a")->Find("b"), nullptr);  // not an object

  // Nesting up to the cap parses.
  const std::string deepest = std::string(json::kMaxDepth, '[') +
                              std::string(json::kMaxDepth, ']');
  EXPECT_NO_THROW(json::Parse(deepest));
}

// ---------------------------------------------------------------------------
// Rejected input.

TEST(Json, RejectsNonRfcInputAtItsOffset) {
  struct Case {
    std::string text;
    std::size_t offset;
  };
  const std::vector<Case> cases = {
      {"[1,]", 3},              // trailing comma in an array
      {R"({"a":1,})", 7},       // ... and in an object
      {"+1", 0},
      {"0x10", 1},
      {"inf", 0},
      {"nan", 0},
      {"01", 1},
      {"1.", 2},
      {".5", 0},
      {"-", 1},
      {"1e", 2},
      {"1e+", 3},
      {"\"a\tb\"", 2},          // raw control byte inside a string
      {R"("\uZZZZ")", 3},
      {R"("\u12")", 5},
      {R"("\ud800")", 7},       // lone high surrogate
      {R"("\ud800\u0041")", 7}, // high surrogate without a low one
      {R"("\udc00")", 1},       // lone low surrogate
      {R"("\x")", 2},
      {"\"abc", 4},             // unterminated string
      {"", 0},
      {"tru", 0},
      {"1 2", 2},
      {"[1 2]", 3},
      {R"({"a" 1})", 5},
      {"{1:2}", 1},
      {std::string(json::kMaxDepth + 1, '['), json::kMaxDepth},
      {std::string(200'000, '['), json::kMaxDepth},
  };
  for (const Case& c : cases) {
    const std::string want =
        StrFormat("malformed JSON at offset %zu: expected ", c.offset);
    const std::string got = ParseError(c.text);
    EXPECT_EQ(got.rfind(want, 0), 0u)
        << "input '" << c.text.substr(0, 40) << "' gave: " << got;
  }
}

TEST(Json, U64ConversionIsStrict) {
  const std::vector<std::pair<std::string, std::uint64_t>> ok = {
      {"0", 0},
      {"7", 7},
      {"6791897765849424158", 6791897765849424158ULL},
      {"18446744073709551615", std::numeric_limits<std::uint64_t>::max()},
  };
  for (const auto& [text, want] : ok) {
    EXPECT_EQ(json::Parse(text).U64(), want) << text;
  }
  for (const char* bad : {"-1", "-0", "1.5", "1e3", "1E0", "18446744073709551616",
                          "99999999999999999999", "\"5\"", "true", "null",
                          "[1]"}) {
    EXPECT_THROW(json::Parse(bad).U64(), SimError) << bad;
  }
}

TEST(Json, DoubleConversionIsStrict) {
  const std::vector<std::pair<std::string, double>> ok = {
      {"0", 0.0},
      {"1.5", 1.5},
      {"-2.25", -2.25},
      {"1e3", 1000.0},
      {"1E-2", 0.01},
      {"1e-400", 0.0},  // underflow rounds to a finite value
      {"1.7976931348623157e308", std::numeric_limits<double>::max()},
      {"18446744073709551616", 18446744073709551616.0},
  };
  for (const auto& [text, want] : ok) {
    EXPECT_EQ(json::Parse(text).Double(), want) << text;
  }
  for (const char* bad : {"1e400", "-1e400", "\"1\"", "false", "null", "{}"}) {
    EXPECT_THROW(json::Parse(bad).Double(), SimError) << bad;
  }
  // %.17g tokens, the journal's encoding, round-trip bit-exactly.
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789,
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min()}) {
    const double back = json::Parse(StrFormat("%.17g", v)).Double();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << StrFormat("%.17g", v);
  }
}

// ---------------------------------------------------------------------------
// Consumers: the sweep journal and the regression sentinel.

TEST(JsonJournal, CorruptNumberAndDeepLineAreDroppedAndResimulated) {
  const std::string path = TempPath("gp_json_journal.jsonl");
  std::remove(path.c_str());
  const exec::SweepGrid grid = TinyGrid();
  const exec::SweepResultTable fresh = RunJournaled(grid, path);
  ASSERT_EQ(fresh.failed_rows, 0u);

  // Corrupt the first row's end tick the way "end_tick":68820 becomes
  // "end_tick":68-20, and append a line nested far past the reader's cap.
  std::vector<std::string> lines = Lines(ReadFile(path));
  ASSERT_GE(lines.size(), 2u);
  std::string& row = lines[1];
  ASSERT_EQ(row.rfind("{\"w\":0,", 0), 0u);
  const std::size_t digit =
      row.find("\"end_tick\":") + std::strlen("\"end_tick\":") + 2;
  ASSERT_TRUE(row[digit] >= '0' && row[digit] <= '9') << row.substr(0, 200);
  row[digit] = '-';
  lines.push_back(std::string(200'000, '['));
  WriteLines(path, lines);

  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(path, grid, &jd));
  EXPECT_EQ(jd.fingerprint, exec::GridFingerprint(grid));
  EXPECT_EQ(jd.dropped_lines, 2u);
  ASSERT_EQ(jd.rows.size(), fresh.rows.size() - 1);
  for (const exec::SweepRow& r : jd.rows) {
    const std::size_t idx =
        (r.workload_idx * grid.profiles.size() + r.profile_idx) *
            grid.configs.size() +
        r.config_idx;
    ASSERT_LT(idx, fresh.rows.size());
    EXPECT_NE(idx, 0u);  // the corrupted row is the one that went
    EXPECT_EQ(core::ToJson(r.results), core::ToJson(fresh.rows[idx].results));
  }

  // Resume re-simulates the dropped row and reproduces the fresh table.
  const exec::SweepResultTable resumed = RunJournaled(grid, path, true);
  EXPECT_EQ(resumed.resumed_rows, fresh.rows.size() - 1);
  EXPECT_FALSE(resumed.rows[0].from_journal);
  EXPECT_EQ(exec::ToDeterministicCsv(resumed), exec::ToDeterministicCsv(fresh));
  std::remove(path.c_str());
}

// A row whose grid index was edited ("w":0 -> "w":1) names a workload and
// seed that do not belong to the cell it now points at. Resume must not
// restore it there; both cells come out as in a fresh run.
TEST(JsonJournal, RowMovedToAnotherCellIsResimulated) {
  const std::string path = TempPath("gp_json_moved_row.jsonl");
  std::remove(path.c_str());
  const exec::SweepGrid grid = TinyGrid();
  const exec::SweepResultTable fresh = RunJournaled(grid, path);
  ASSERT_EQ(fresh.rows.size(), 4u);

  std::vector<std::string> lines = Lines(ReadFile(path));
  ASSERT_EQ(lines[1].rfind("{\"w\":0,", 0), 0u);
  lines[1].replace(0, 7, "{\"w\":1,");
  WriteLines(path, lines);

  // LoadJournal drops the foreign row like any other bad line.
  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(path, grid, &jd));
  EXPECT_EQ(jd.dropped_lines, 1u);
  EXPECT_EQ(jd.rows.size(), 3u);

  // Row 2 is the cell the edited row claims: (prank, baseline).
  const exec::SweepResultTable resumed = RunJournaled(grid, path, true);
  EXPECT_EQ(resumed.resumed_rows, 3u);
  EXPECT_FALSE(resumed.rows[0].from_journal);
  EXPECT_TRUE(resumed.rows[2].from_journal);
  EXPECT_EQ(resumed.rows[2].workload, "prank");
  EXPECT_EQ(exec::ToDeterministicCsv(resumed), exec::ToDeterministicCsv(fresh));
  std::remove(path.c_str());
}

TEST(JsonCompare, HostileInputThrowsSimError) {
  const std::string deep(200'000, '[');
  EXPECT_THROW(telemetry::FlattenRunJson(deep), SimError);
  EXPECT_THROW(telemetry::FlattenRunJson(deep + "\n" + deep), SimError);
  EXPECT_THROW(telemetry::FlattenRunJson("{\"a\":1}\n" + deep), SimError);
  // Non-JSON numbers that strtod would have taken.
  EXPECT_THROW(telemetry::FlattenRunJson(R"({"cycles":0x10,"ipc":inf,"x":+1})"),
               SimError);
  EXPECT_THROW(telemetry::FlattenRunJson(R"({"cycles":1e400})"), SimError);
  try {
    telemetry::FlattenRunJson(deep);
  } catch (const SimError& e) {
    EXPECT_EQ(e.message().rfind("malformed JSON at offset", 0), 0u)
        << e.message();
  }
}

// ---------------------------------------------------------------------------
// Deterministic mutation fuzzing (tests/mutate.h).

// JSON punctuation, so insertions reach deep into the grammar.
constexpr std::string_view kJsonBytes = "{}[]\":,-+.eE0123456789\\u \t\n\r\x01\x7f";

// The header and row lines of a tiny sweep's journal, sidecars left out.
// `name` is the scratch file; CTest runs tests in parallel processes.
std::vector<std::string> JournalRows(const char* name) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  EXPECT_EQ(RunJournaled(TinyGrid(), path).failed_rows, 0u);
  std::vector<std::string> lines;
  for (std::string& line : Lines(ReadFile(path))) {
    if (lines.empty() || StartsWith(line, "{\"w\":")) {
      lines.push_back(std::move(line));
    }
  }
  std::remove(path.c_str());
  return lines;
}

// A Chrome trace holding one phase and one sampled atomic's span events.
std::string ChromeTraceSeed() {
  trace::SpanRecorder rec(1.0);
  trace::SpanRef a = rec.Begin(5, 0, 'A', 0x40, NsToTicks(0));
  rec.Stage(a, trace::SpanStage::kVaultQueue, NsToTicks(4), NsToTicks(6), 2);
  rec.Stage(a, trace::SpanStage::kBankAccess, NsToTicks(6), NsToTicks(30), 2);
  rec.End(a, NsToTicks(36), true);
  const trace::SpanLog spans = rec.TakeLog();
  trace::IntervalLog phases;
  StatRegistry reg;
  reg.Add("hmc.reads", 3.0);
  phases.Cut("superstep.0", 0, NsToTicks(40), reg);
  return trace::ToChromeTrace(
      {trace::ToChromeEvents(phases), trace::SpansToChromeEvents(spans)});
}

TEST(JsonFuzz, MutantsParseOrThrowSimError) {
  const std::vector<std::string> rows = JournalRows("gp_json_fuzz_seed.jsonl");
  ASSERT_GE(rows.size(), 2u);
  const std::vector<std::string> seeds = {rows[1], Bench0008(),
                                          ChromeTraceSeed()};
  for (const std::string& s : seeds) ASSERT_NO_THROW(json::Parse(s));

  constexpr std::size_t kMutants = 21'000;
  SplitMix64 rng(0x6a736f6e);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string m = Mutate(seeds[i % seeds.size()], rng, kJsonBytes);
    // Anything other than a value or a SimError escapes and fails the test.
    try {
      json::Parse(m);
      ++parsed;
    } catch (const SimError&) {
      ++rejected;
    }
    try {
      telemetry::FlattenRunJson(m);
    } catch (const SimError&) {
    }
  }
  EXPECT_EQ(parsed + rejected, kMutants);
  // Both outcomes occur, or the mutator is not exercising the grammar.
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 2);
}

TEST(JsonFuzz, LoadJournalSurvivesMutatedRows) {
  const std::vector<std::string> rows = JournalRows("gp_json_fuzz_rows.jsonl");
  ASSERT_GE(rows.size(), 2u);
  std::vector<std::string> lines = {rows[0]};
  SplitMix64 rng(0x6a6f75726e616cULL);
  for (std::size_t i = 0; i < 2'000; ++i) {
    lines.push_back(Mutate(rows[1 + i % (rows.size() - 1)], rng, kJsonBytes));
  }
  const std::string path = TempPath("gp_json_fuzz_journal.jsonl");
  WriteLines(path, lines);

  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(path, TinyGrid(), &jd));
  EXPECT_EQ(jd.fingerprint, exec::GridFingerprint(TinyGrid()));
  EXPECT_GT(jd.dropped_lines, 0u);
  EXPECT_GT(jd.rows.size(), 0u);
  for (const exec::SweepRow& r : jd.rows) {
    EXPECT_TRUE(r.from_journal);
    EXPECT_EQ(r.status, exec::JobStatus::kOk);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphpim
