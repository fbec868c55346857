// Tests for the transaction flight recorder (common/span.h): deterministic
// sampling, stage recording, exporters (strict-JSON), stat folding, the
// zero-overhead-off contract, and the sweep-journal span sidecar.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/span.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/report.h"
#include "core/runner.h"
#include "exec/journal.h"
#include "exec/sweep.h"

namespace graphpim {
namespace {

// ---------------------------------------------------------------------------
// Sampling.

TEST(SpanSampling, DecisionIsAPureFunctionOfTheId) {
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(trace::SampleSpan(0.1, id), trace::SampleSpan(0.1, id));
    EXPECT_FALSE(trace::SampleSpan(0.0, id));
    EXPECT_TRUE(trace::SampleSpan(1.0, id));
  }
}

TEST(SpanSampling, RateControlsTheSampledFraction) {
  std::size_t hits = 0;
  const std::size_t n = 100'000;
  for (std::uint64_t id = 0; id < n; ++id) {
    if (trace::SampleSpan(0.1, id)) ++hits;
  }
  const double frac = static_cast<double>(hits) / static_cast<double>(n);
  EXPECT_GT(frac, 0.08);
  EXPECT_LT(frac, 0.12);
}

TEST(SpanSampling, RequestIdPacksCoreAboveOrdinal) {
  EXPECT_EQ(trace::SpanRequestId(0, 0), 0u);
  EXPECT_EQ(trace::SpanRequestId(0, 7), 7u);
  EXPECT_EQ(trace::SpanRequestId(3, 7), (3ULL << 48) | 7u);
  // Distinct cores never collide, whatever their ordinals.
  EXPECT_NE(trace::SpanRequestId(1, 0), trace::SpanRequestId(2, 0));
}

// ---------------------------------------------------------------------------
// Recorder.

TEST(SpanRecorder, RecordsStagesThroughValidRefsOnly) {
  trace::SpanRecorder rec(1.0);
  trace::SpanRef ref = rec.Begin(42, 1, 'A', 0x1000, NsToTicks(10));
  ASSERT_TRUE(ref.valid());
  rec.Stage(ref, trace::SpanStage::kVaultQueue, NsToTicks(10), NsToTicks(12), 3);
  rec.End(ref, NsToTicks(20), true);

  // Invalid refs are silently ignored — this is the unsampled path.
  rec.Stage(trace::SpanRef(), trace::SpanStage::kBankAccess, 0, 1);
  rec.End(trace::SpanRef(), 99, false);

  ASSERT_EQ(rec.log().spans.size(), 1u);
  const trace::SpanRecord& sp = rec.log().spans[0];
  EXPECT_EQ(sp.id, 42u);
  EXPECT_EQ(sp.core, 1);
  EXPECT_EQ(sp.kind, 'A');
  EXPECT_TRUE(sp.offloaded);
  ASSERT_EQ(sp.stages.size(), 1u);
  EXPECT_EQ(sp.stages[0].stage, trace::SpanStage::kVaultQueue);
  EXPECT_EQ(sp.stages[0].detail, 3u);
}

TEST(SpanRecorder, MaxSpansCapsTheLog) {
  trace::SpanRecorder rec(1.0, 2);
  EXPECT_TRUE(rec.Begin(1, 0, 'R', 0, 0).valid());
  EXPECT_TRUE(rec.Begin(2, 0, 'R', 0, 0).valid());
  EXPECT_FALSE(rec.Begin(3, 0, 'R', 0, 0).valid());
  EXPECT_EQ(rec.log().spans.size(), 2u);
}

TEST(SpanRecorder, ZeroRateSamplesNothing) {
  trace::SpanRecorder rec(0.0);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_FALSE(rec.Begin(id, 0, 'R', 0, 0).valid());
  }
  EXPECT_TRUE(rec.log().empty());
}

// ---------------------------------------------------------------------------
// Exporters and stat folding.

trace::SpanLog SmallLog() {
  trace::SpanRecorder rec(1.0);
  trace::SpanRef a = rec.Begin(5, 0, 'A', 0x40, NsToTicks(0));
  rec.Stage(a, trace::SpanStage::kCubeLink, NsToTicks(0), NsToTicks(4), 0);
  rec.Stage(a, trace::SpanStage::kVaultQueue, NsToTicks(4), NsToTicks(6), 2);
  rec.Stage(a, trace::SpanStage::kBankAccess, NsToTicks(6), NsToTicks(30), 2);
  rec.Stage(a, trace::SpanStage::kAtomicFu, NsToTicks(30), NsToTicks(31), 2);
  rec.Stage(a, trace::SpanStage::kResponse, NsToTicks(31), NsToTicks(36), 0);
  rec.End(a, NsToTicks(36), true);
  trace::SpanRef b = rec.Begin(9, 1, 'R', 0x80, NsToTicks(2));
  rec.Stage(b, trace::SpanStage::kCacheLookup, NsToTicks(2), NsToTicks(5), 1);
  rec.End(b, NsToTicks(5), false);
  return rec.TakeLog();
}

TEST(SpanExport, JsonlLinesAreStrictJson) {
  const std::string jsonl = trace::SpansToJsonl(SmallLog());
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NO_THROW(json::Parse(line)) << line;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"kind\":\"A\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"s\":\"vault_queue\""), std::string::npos);
}

TEST(SpanExport, ChromeTraceWithSpansIsStrictJson) {
  trace::IntervalLog phases;
  StatRegistry reg;
  reg.Add("hmc.reads", 3.0);
  phases.Cut("superstep.0", 0, NsToTicks(40), reg);
  const trace::SpanLog spans = SmallLog();
  const std::string chrome = trace::ToChromeTrace(
      {trace::ToChromeEvents(phases), trace::SpansToChromeEvents(spans)});
  EXPECT_NO_THROW(json::Parse(chrome)) << chrome;
  // Span tracks ride their own pids next to the phase track.
  EXPECT_NE(chrome.find("\"name\":\"cores\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"vaults\""), std::string::npos);
  EXPECT_NE(chrome.find("span.bank"), std::string::npos);
}

TEST(SpanExport, EmptyChromeTraceIsValidAndExact) {
  // Regression: an empty phase log (e.g. --metrics-out on a run with no
  // barrier) must still emit a strict-JSON document with an empty
  // traceEvents array, not a dangling "[\n".
  const trace::IntervalLog empty;
  const std::string chrome = trace::ToChromeTrace(
      {trace::ToChromeEvents(empty), trace::SpansToChromeEvents({})});
  EXPECT_EQ(chrome, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
  EXPECT_NO_THROW(json::Parse(chrome));
  // And the same through the file writer.
  const std::string path = ::testing::TempDir() + "/gp_empty_trace.json";
  trace::WriteTrace(path, {trace::ToChromeEvents(empty)},
                    trace::ToJsonl(empty));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), chrome);
  std::remove(path.c_str());
}

TEST(SpanExport, NonEmptyPhaseOnlyTraceIsStrictJson) {
  trace::IntervalLog phases;
  StatRegistry reg;
  reg.Add("core.insts", 10.0);
  phases.Cut("superstep.0", 0, NsToTicks(10), reg);
  EXPECT_NO_THROW(
      json::Parse(trace::ToChromeTrace({trace::ToChromeEvents(phases)})));
}

TEST(SpanStats, FoldProducesPerStageAndAtomicFamilies) {
  StatRegistry reg;
  trace::FoldSpanStats(SmallLog(), &reg);
  EXPECT_DOUBLE_EQ(reg.Get("span.sampled"), 2.0);
  EXPECT_DOUBLE_EQ(reg.Get("span.bank.count"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("span.bank.sum_ns"), 24.0);
  EXPECT_DOUBLE_EQ(reg.Get("span.cache.count"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("span.atomic.count"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("span.atomic.total_ns"), 36.0);
  // The atomic's stages tile its lifetime exactly.
  EXPECT_DOUBLE_EQ(reg.Get("span.atomic.unattributed_ns"), 0.0);
  EXPECT_DOUBLE_EQ(reg.Get("span.atomic.bank.sum_ns"), 24.0);

  // Folding an empty log touches nothing (the goldens contract).
  StatRegistry clean;
  trace::FoldSpanStats(trace::SpanLog(), &clean);
  EXPECT_FALSE(clean.Has("span.sampled"));
}

TEST(SpanStats, FoldReportsP99NextToP95) {
  // Serving SLOs read span.*.p99; regression-pin the keys for both the
  // per-stage and the atomic-total families. On SmallLog's single-sample
  // stages every quantile collapses to the same bucket, so p99 must be
  // present and >= p95.
  StatRegistry reg;
  trace::FoldSpanStats(SmallLog(), &reg);
  ASSERT_TRUE(reg.Has("span.bank.p99"));
  ASSERT_TRUE(reg.Has("span.atomic.p99"));
  EXPECT_GE(reg.Get("span.bank.p99"), reg.Get("span.bank.p95"));
  EXPECT_GE(reg.Get("span.atomic.p99"), reg.Get("span.atomic.p95"));
}

// ---------------------------------------------------------------------------
// End to end through the simulator.

core::SimConfig TracedConfig(double rate) {
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = 4;
  sc.trace_sample_rate = rate;
  return sc;
}

TEST(SpanEndToEnd, SampledRunIsDeterministic) {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 3;
  eo.op_cap = 30'000;
  core::Experiment exp("ldbc", 512, "bfs", eo);

  trace::SpanLog a, b;
  core::RunOptions ra, rb;
  ra.spans = &a;
  rb.spans = &b;
  exp.Run(TracedConfig(0.1), ra);
  exp.Run(TracedConfig(0.1), rb);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(trace::SpansToJsonl(a), trace::SpansToJsonl(b));
}

TEST(SpanEndToEnd, TracingDoesNotPerturbSimulationResults) {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 3;
  eo.op_cap = 30'000;
  core::Experiment exp("ldbc", 512, "bfs", eo);

  const core::SimResults off = exp.Run(TracedConfig(0.0));
  const core::SimResults on = exp.Run(TracedConfig(0.5));
  // Timing identical; the traced run only ADDS span.* counters.
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.insts, off.insts);
  for (const auto& [k, v] : off.raw.AllItems()) {
    EXPECT_DOUBLE_EQ(on.raw.Get(k), v) << k;
  }
  EXPECT_TRUE(on.raw.Has("span.sampled"));
  EXPECT_FALSE(off.raw.Has("span.sampled"));
  // The off run is byte-identical to a default (untraced) config's run.
  EXPECT_EQ(core::ToJson(off), core::ToJson(exp.Run(TracedConfig(0.0))));
}

TEST(SpanEndToEnd, AtomicStageSumsReconcileWithAggregateCounters) {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 7;
  eo.op_cap = 60'000;
  core::Experiment exp("ldbc", 1024, "prank", eo);

  core::SimResults r = exp.Run(TracedConfig(1.0));  // sample everything
  ASSERT_TRUE(r.raw.Has("span.atomic.count"));
  // Every atomic micro-op was sampled, so the span census matches the
  // aggregate counters exactly...
  EXPECT_DOUBLE_EQ(r.raw.Get("span.atomic.count"),
                   static_cast<double>(r.atomics));
  // ...and per-stage sums reconcile with the cube's dbg_a_* aggregates
  // (GraphPIM offloads every PMR atomic, and the vault stages tile
  // [arrival, data_ready] by construction). 1% headroom for float folding.
  const double vault_spans = r.raw.Get("span.atomic.vault_queue.sum_ns") +
                             r.raw.Get("span.atomic.bank.sum_ns") +
                             r.raw.Get("span.atomic.fu.sum_ns");
  const double vault_agg = r.raw.Get("hmc.dbg_a_vault_ns");
  EXPECT_NEAR(vault_spans, vault_agg, 0.01 * vault_agg);
  const double link_spans = r.raw.Get("span.atomic.cube_link.sum_ns");
  const double link_agg = r.raw.Get("hmc.dbg_a_req_ns");
  EXPECT_NEAR(link_spans, link_agg, 0.01 * link_agg);
}

TEST(SpanEndToEnd, ReportAndBottleneckTableRenderSpanSections) {
  core::Experiment::Options eo;
  eo.num_threads = 2;
  eo.seed = 3;
  eo.op_cap = 20'000;
  core::Experiment exp("ldbc", 512, "bfs", eo);
  core::SimConfig sc = TracedConfig(1.0);
  sc.num_cores = 2;
  const core::SimResults r = exp.Run(sc);

  const std::string report = core::FormatReport(r);
  EXPECT_NE(report.find("spans: "), std::string::npos);
  EXPECT_NE(report.find("atomic end-to-end"), std::string::npos);
  // The span section sits strictly after the energy line so golden diffs
  // bounded at "uncore energy:" never see it.
  EXPECT_LT(report.find("uncore energy:"), report.find("spans: "));

  const std::string table = core::FormatBottleneckTable({r});
  EXPECT_NE(table.find("bottleneck attribution"), std::string::npos);
  EXPECT_NE(table.find("bank"), std::string::npos);

  // Untraced results render no span section and no table.
  core::SimConfig plain = TracedConfig(0.0);
  plain.num_cores = 2;
  const core::SimResults off = exp.Run(plain);
  EXPECT_EQ(core::FormatReport(off).find("spans: "), std::string::npos);
  EXPECT_TRUE(core::FormatBottleneckTable({off}).empty());
}

// ---------------------------------------------------------------------------
// Sweep journal sidecar.

std::string SpanSidecars(const std::string& path) {
  std::ifstream in(path);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("{\"spans_for\":", 0) == 0) {
      EXPECT_NO_THROW(json::Parse(line)) << line;
      out += line;
      out += '\n';
    }
  }
  return out;
}

TEST(SpanJournal, SidecarsAreWrittenSkippedOnLoadAndJobsInvariant) {
  exec::SweepGrid grid;
  grid.workloads = {"bfs"};
  grid.profiles = {"ldbc"};
  grid.vertices = 512;
  grid.sim_threads = 2;
  grid.op_cap = 10'000;
  core::SimConfig c = core::SimConfig::Scaled(core::Mode::kGraphPim);
  c.num_cores = 2;
  c.trace_sample_rate = 0.2;
  grid.configs = {c, core::SimConfig::Scaled(core::Mode::kBaseline)};
  grid.configs[1].num_cores = 2;
  grid.configs[1].trace_sample_rate = 0.2;
  grid.config_names = {"graphpim", "baseline"};

  auto run_with_jobs = [&](int jobs, const std::string& path) {
    std::remove(path.c_str());
    exec::SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.journal_path = path;
    exec::SweepResultTable t = exec::SweepRunner(opts).Run(grid);
    EXPECT_EQ(t.failed_rows, 0u);
  };

  const std::string p1 = ::testing::TempDir() + "/gp_spans_j1.jsonl";
  const std::string p4 = ::testing::TempDir() + "/gp_spans_j4.jsonl";
  run_with_jobs(1, p1);
  run_with_jobs(4, p4);

  const std::string s1 = SpanSidecars(p1);
  const std::string s4 = SpanSidecars(p4);
  ASSERT_FALSE(s1.empty());
  // Deterministic sampling: the span sidecars are bit-identical at any
  // --jobs width (rows are harvested in grid order either way).
  EXPECT_EQ(s1, s4);
  EXPECT_NE(s1.find("\"spans\":[{"), std::string::npos);

  // Sidecars are annotations: loading restores the rows and drops nothing.
  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(p1, grid, &jd));
  EXPECT_EQ(jd.rows.size(), 2u);
  EXPECT_EQ(jd.dropped_lines, 0u);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

}  // namespace
}  // namespace graphpim
