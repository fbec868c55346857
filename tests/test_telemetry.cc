// Telemetry tests (DESIGN.md §17): the interval log's window policy
// (boundary math, gauges, the cap), the window exporters, the
// sink-required config gate, windowed end-to-end runs (rerun determinism,
// strict off-identity), serve per-window gauges, the journal timeline
// sidecar, and the run-comparison engine behind tools/graphpim_compare.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/report.h"
#include "core/runner.h"
#include "core/sim_config.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "serve/engine.h"
#include "serve/slo.h"
#include "telemetry/compare.h"

namespace graphpim {
namespace {

// ---------------------------------------------------------------------------
// Window policy units.

TEST(WindowLog, CutsAtBoundariesAndAttachesDeltasToFirstWindow) {
  StatRegistry reg;
  trace::IntervalLog tl(100, 0, {});
  const std::vector<trace::Interval>& w = tl.intervals();

  reg.Add("x", 5.0);
  tl.AdvanceTo(50, &reg);
  EXPECT_TRUE(tl.empty());  // boundary 100 not reached
  EXPECT_EQ(tl.next_boundary(), 100u);

  tl.AdvanceTo(100, &reg);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].start, 0u);
  EXPECT_EQ(w[0].end, 100u);
  ASSERT_EQ(w[0].deltas.size(), 1u);
  EXPECT_EQ(w[0].deltas[0].first, "x");
  EXPECT_DOUBLE_EQ(w[0].deltas[0].second, 5.0);

  // One quantum jumps two boundaries: the accrued delta attaches to the
  // first window of the span, the second stays empty (virtual time inside
  // a quantum is not subdividable after the fact).
  reg.Add("x", 2.0);
  tl.AdvanceTo(350, &reg);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[1].end, 200u);
  ASSERT_EQ(w[1].deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(w[1].deltas[0].second, 2.0);
  EXPECT_TRUE(w[2].deltas.empty());
  EXPECT_EQ(tl.next_boundary(), 400u);

  // Finish flushes the trailing partial window up to the final tick.
  reg.Add("x", 1.0);
  tl.Finish(370, &reg);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[3].start, 300u);
  EXPECT_EQ(w[3].end, 370u);
  ASSERT_EQ(w[3].deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(w[3].deltas[0].second, 1.0);

  // Idempotent: a second Finish adds nothing.
  tl.Finish(370, &reg);
  EXPECT_EQ(w.size(), 4u);
}

TEST(WindowLog, TelemetryOnAlwaysYieldsAtLeastOneWindow) {
  StatRegistry reg;
  trace::IntervalLog tl(1000, 0, {});
  tl.Finish(0, &reg);  // degenerate run: no tick ever advanced
  ASSERT_EQ(tl.intervals().size(), 1u);
  EXPECT_EQ(tl.intervals()[0].start, 0u);
  EXPECT_EQ(tl.intervals()[0].end, 0u);
}

TEST(WindowLog, GaugeSamplerRunsPerCutInEmissionOrder) {
  std::vector<std::pair<Tick, Tick>> seen;
  trace::IntervalLog tl(100, 0, [&](Tick s, Tick e, trace::Items* out) {
    seen.emplace_back(s, e);
    out->emplace_back("z.gauge", 2.0);
    out->emplace_back("a.gauge", 1.0);  // emission order, NOT sorted
  });
  // No registry: gauges-only windows, as the serve loop cuts them.
  tl.AdvanceTo(200, nullptr);
  tl.Finish(250, nullptr);
  ASSERT_EQ(tl.intervals().size(), 3u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<Tick, Tick>{0, 100}));
  EXPECT_EQ(seen[2], (std::pair<Tick, Tick>{200, 250}));
  const trace::Interval& w0 = tl.intervals()[0];
  EXPECT_TRUE(w0.deltas.empty());
  ASSERT_EQ(w0.gauges.size(), 2u);
  EXPECT_EQ(w0.gauges[0].first, "z.gauge");
  EXPECT_EQ(w0.gauges[1].first, "a.gauge");
}

TEST(WindowLog, MaxWindowsCapCountsDroppedCuts) {
  StatRegistry reg;
  trace::IntervalLog tl(100, 2, {});
  tl.AdvanceTo(400, &reg);  // four boundaries
  EXPECT_EQ(tl.intervals().size(), 2u);
  EXPECT_EQ(tl.dropped(), 2u);
}

// ---------------------------------------------------------------------------
// Exporters.

// Two windows, [0,100) and the trailing [100,150), each with one delta
// and one gauge.
trace::IntervalLog TinyTimeline() {
  trace::IntervalLog tl(100, 0, [](Tick, Tick, trace::Items* out) {
    out->emplace_back("tele.link.occupancy", 0.5);
  });
  StatRegistry reg;
  reg.Add("core.insts", 42.0);
  tl.AdvanceTo(100, &reg);
  reg.Add("core.insts", 42.0);
  tl.Finish(150, &reg);
  return tl;
}

TEST(TimelineExport, JsonlCarriesWindowFieldsAndOptionalPoint) {
  const trace::IntervalLog tl = TinyTimeline();
  const std::string plain = trace::ToJsonl(tl);
  EXPECT_NE(plain.find("{\"window\":0,\"start_ns\":0.000"), std::string::npos)
      << plain;
  EXPECT_NE(plain.find("\"deltas\":{\"core.insts\":42}"), std::string::npos);
  EXPECT_NE(plain.find("\"gauges\":{\"tele.link.occupancy\":0.5}"),
            std::string::npos);
  EXPECT_EQ(plain.find("\"point\""), std::string::npos);

  const std::string pointed = trace::ToJsonl(tl, "GraphPIM@qps=1e6");
  EXPECT_EQ(pointed.rfind("{\"point\":\"GraphPIM@qps=1e6\",", 0), 0u)
      << pointed;
  EXPECT_TRUE(trace::ToJsonl(trace::IntervalLog{}).empty());
}

TEST(TimelineExport, ChromeEventsSpliceAndNamespace) {
  const trace::IntervalLog tl = TinyTimeline();
  const std::string ev = trace::ToChromeEvents(tl);
  // Splice convention: each event prefixed "\n", events joined ",".
  EXPECT_EQ(ev.rfind("\n{", 0), 0u) << ev;
  EXPECT_NE(ev.find("\"ph\":\"C\""), std::string::npos);
  // Windows render counter tracks only, no phase slices.
  EXPECT_EQ(ev.find("\"ph\":\"X\""), std::string::npos);
  // Counter deltas get a tele: track prefix; gauges keep their names.
  EXPECT_NE(ev.find("\"name\":\"tele:core.insts\""), std::string::npos);
  EXPECT_NE(ev.find("\"name\":\"tele.link.occupancy\""), std::string::npos);
  const std::string scoped = trace::ToChromeEvents(tl, "p1|");
  EXPECT_NE(scoped.find("\"name\":\"p1|tele:core.insts\""), std::string::npos);
  EXPECT_TRUE(trace::ToChromeEvents(trace::IntervalLog{}).empty());
}

TEST(TimelineExport, RequireSinkGatesOnWindowAndSink) {
  EXPECT_NO_THROW(trace::RequireSink(0.0, false, "hint"));
  EXPECT_NO_THROW(trace::RequireSink(100.0, true, "hint"));
  EXPECT_THROW(trace::RequireSink(100.0, false, "hint"), SimError);
}

// ---------------------------------------------------------------------------
// Config surface.

TEST(TelemetryConfig, KnobsParseRangeCheckAndCrossValidate) {
  Config cfg;
  cfg.Set("telemetry-window-ns", "2500");
  cfg.Set("telemetry.max_windows", "64");
  const core::SimConfig sc =
      core::SimConfig::FromConfig(cfg, core::Mode::kGraphPim);
  EXPECT_DOUBLE_EQ(sc.telemetry_window_ns, 2500.0);
  EXPECT_EQ(sc.telemetry_max_windows, 64u);

  Config neg;
  neg.Set("telemetry-window-ns", "-5");
  EXPECT_THROW(core::SimConfig::FromConfig(neg, core::Mode::kGraphPim),
               SimError);
  Config frac;
  frac.Set("telemetry-max-windows", "1.5");  // integer-only knob
  EXPECT_THROW(core::SimConfig::FromConfig(frac, core::Mode::kGraphPim),
               SimError);
  // Cross-field Validate(): a sub-nanosecond window cuts inside one tick.
  core::SimConfig sub = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sub.telemetry_window_ns = 0.5;
  EXPECT_THROW(sub.Validate(), SimError);
}

// ---------------------------------------------------------------------------
// End-to-end: windowed replay runs.

core::SimConfig WindowedConfig(double window_ns) {
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = 4;
  sc.telemetry_window_ns = window_ns;
  return sc;
}

core::Experiment TinyExperiment() {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 3;
  eo.op_cap = 30'000;
  return core::Experiment("ldbc", 512, "bfs", eo);
}

TEST(TelemetryEndToEnd, TimelineIsBitIdenticalAcrossReruns) {
  const core::Experiment exp = TinyExperiment();
  auto run = [&]() {
    trace::IntervalLog tl;
    core::RunOptions ro;
    ro.timeline = &tl;
    exp.Run(WindowedConfig(2000.0), ro);
    return trace::ToJsonl(tl);
  };
  const std::string first = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(TelemetryEndToEnd, OffIsIdentityAndLeavesTimelineUntouched) {
  const core::Experiment exp = TinyExperiment();
  trace::IntervalLog tl;
  core::RunOptions ro;
  ro.timeline = &tl;
  const core::SimResults off = exp.Run(WindowedConfig(0.0), ro);
  // No window log was built: the run leaves an empty log.
  EXPECT_TRUE(tl.empty());
  EXPECT_FALSE(tl.windowed());

  const core::SimResults plain = exp.Run(WindowedConfig(0.0));
  EXPECT_EQ(core::ToJson(off), core::ToJson(plain));
  // ...and a windowed run does not perturb the simulation itself.
  const core::SimResults on = exp.Run(WindowedConfig(2000.0), ro);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(core::ToJson(on), core::ToJson(off));
}

// ---------------------------------------------------------------------------
// Serve per-window telemetry.

serve::ServeParams WindowedServeParams(double window_ns, double slo_ns) {
  serve::ServeParams p;
  p.cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  p.cfg.telemetry_window_ns = window_ns;
  p.traffic.qps = 2e6;
  p.traffic.num_requests = 40;
  p.traffic.num_tenants = 2;
  p.traffic.num_vertices = 2048;
  p.traffic.seed = 7;
  p.query.max_hops = 2;
  p.query.max_frontier = 16;
  p.query.op_budget = 600;
  p.queue_depth = 8;
  p.slots = 2;
  p.batch_max = 4;
  p.slo_ns = slo_ns;
  return p;
}

serve::ServedGraph::Options TinyServedGraph() {
  serve::ServedGraph::Options go;
  go.profile = "ldbc";
  go.num_vertices = 2048;
  go.num_tenants = 2;
  go.seed = 7;
  return go;
}

TEST(ServeTelemetry, WindowGaugesConservePointTotals) {
  const serve::ServedGraph sg(TinyServedGraph());
  const serve::ServeParams p = WindowedServeParams(20'000.0, 10'000.0);
  const serve::ServePoint pt = serve::RunServePoint(sg, p);

  ASSERT_FALSE(pt.timeline.empty());
  double arrivals = 0.0;
  double completed = 0.0;
  double dropped = 0.0;
  bool saw_burn = false;
  for (const trace::Interval& w : pt.timeline.intervals()) {
    EXPECT_TRUE(w.deltas.empty());  // serve windows are gauges-only
    for (const auto& [k, v] : w.gauges) {
      if (k == "serve.arrivals") arrivals += v;
      if (k == "serve.completed") completed += v;
      if (k == "serve.dropped") dropped += v;
      if (k == "serve.tenant0.slo_burn" || k == "serve.tenant1.slo_burn") {
        saw_burn = true;
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
  EXPECT_DOUBLE_EQ(arrivals, static_cast<double>(pt.offered));
  EXPECT_DOUBLE_EQ(completed, static_cast<double>(pt.served));
  EXPECT_DOUBLE_EQ(dropped, static_cast<double>(pt.dropped));
  EXPECT_TRUE(saw_burn);

  // The heartbeat note renders the last window's gauges.
  const std::string note = serve::TimelineNote(pt.timeline);
  EXPECT_EQ(note.rfind("qps=", 0), 0u) << note;
  EXPECT_NE(note.find("p99="), std::string::npos);
  EXPECT_TRUE(serve::TimelineNote(trace::IntervalLog{}).empty());
}

TEST(ServeTelemetry, WindowTableIsJobsInvariantAndOffIsSilent) {
  const serve::ServedGraph sg(TinyServedGraph());
  const serve::ServeParams base = WindowedServeParams(20'000.0, 10'000.0);
  std::vector<std::pair<std::string, core::SimConfig>> configs = {
      {"GraphPIM", base.cfg}};
  core::SimConfig bl = core::SimConfig::Scaled(core::Mode::kBaseline);
  bl.telemetry_window_ns = base.cfg.telemetry_window_ns;
  configs.emplace_back("Baseline", bl);
  const std::vector<double> qps = {2e5, 2e6};

  const serve::ServeGridResult j1 = serve::RunServeGrid(sg, base, configs, qps, 1);
  const serve::ServeGridResult j4 = serve::RunServeGrid(sg, base, configs, qps, 4);
  const std::string t1 = serve::FormatServeTimeline(j1.points);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, serve::FormatServeTimeline(j4.points));
  EXPECT_NE(t1.find("tenant burn"), std::string::npos);

  // Telemetry off: no windows, and the table renders as "" so the serve
  // report stays byte-identical to pre-telemetry builds.
  serve::ServeParams off = base;
  off.cfg.telemetry_window_ns = 0.0;
  const serve::ServePoint pt = serve::RunServePoint(sg, off);
  EXPECT_TRUE(pt.timeline.empty());
  EXPECT_TRUE(serve::FormatServeTimeline({pt}).empty());
}

// telemetry.max_windows=0 means unbounded, in serve as in the replay loop.
TEST(ServeTelemetry, MaxWindowsZeroIsUnbounded) {
  const serve::ServedGraph sg(TinyServedGraph());
  serve::ServeParams p = WindowedServeParams(20'000.0, 10'000.0);
  const serve::ServePoint capped = serve::RunServePoint(sg, p);
  p.cfg.telemetry_max_windows = 0;
  const serve::ServePoint unbounded = serve::RunServePoint(sg, p);
  ASSERT_FALSE(capped.timeline.empty());
  EXPECT_EQ(capped.timeline.dropped(), 0u);
  EXPECT_EQ(trace::ToJsonl(unbounded.timeline),
            trace::ToJsonl(capped.timeline));
  EXPECT_EQ(unbounded.timeline.dropped(), 0u);
}

TEST(ServeTelemetry, NegativeSloIsRejected) {
  const serve::ServedGraph sg(TinyServedGraph());
  serve::ServeParams p = WindowedServeParams(0.0, -1.0);
  EXPECT_THROW(serve::RunServePoint(sg, p), SimError);
  // The grid must fail fast on the orchestrating thread too — a throw
  // inside a pool worker would terminate the process.
  EXPECT_THROW(
      serve::RunServeGrid(sg, p, {{"GraphPIM", p.cfg}}, {2e5}, 1), SimError);
}

// ---------------------------------------------------------------------------
// Sweep journal timeline sidecar.

TEST(TelemetryJournal, SidecarsAreWrittenSkippedOnLoadAndJobsInvariant) {
  exec::SweepGrid grid;
  grid.workloads = {"bfs"};
  grid.profiles = {"ldbc"};
  grid.vertices = 512;
  grid.sim_threads = 2;
  grid.op_cap = 10'000;
  core::SimConfig c = core::SimConfig::Scaled(core::Mode::kGraphPim);
  c.num_cores = 2;
  c.telemetry_window_ns = 2000.0;
  grid.configs = {c, core::SimConfig::Scaled(core::Mode::kBaseline)};
  grid.configs[1].num_cores = 2;
  grid.configs[1].telemetry_window_ns = 2000.0;
  grid.config_names = {"graphpim", "baseline"};

  auto sidecars_with_jobs = [&](int jobs, const std::string& path) {
    std::remove(path.c_str());
    exec::SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.journal_path = path;
    exec::SweepResultTable t = exec::SweepRunner(opts).Run(grid);
    EXPECT_EQ(t.failed_rows, 0u);
    std::ifstream in(path);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.rfind("{\"timeline_for\":", 0) == 0) {
        // The flattener doubles as a strict-JSON check on the sidecar.
        EXPECT_NO_THROW(telemetry::FlattenRunJson(line)) << line;
        out += line;
        out += '\n';
      }
    }
    return out;
  };

  const std::string p1 = ::testing::TempDir() + "/gp_tele_j1.jsonl";
  const std::string p4 = ::testing::TempDir() + "/gp_tele_j4.jsonl";
  const std::string s1 = sidecars_with_jobs(1, p1);
  const std::string s4 = sidecars_with_jobs(4, p4);
  ASSERT_FALSE(s1.empty());
  // Rows are harvested in grid order at any --jobs, so the timeline
  // sidecars are bit-identical too.
  EXPECT_EQ(s1, s4);
  EXPECT_NE(s1.find("\"windows\":[{"), std::string::npos);

  // Sidecars are annotations: loading restores the rows and drops nothing.
  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(p1, grid, &jd));
  EXPECT_EQ(jd.rows.size(), 2u);
  EXPECT_EQ(jd.dropped_lines, 0u);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

// ---------------------------------------------------------------------------
// Comparison engine (tools/graphpim_compare).

TEST(CompareEngine, FlattensDocumentsAndJsonl) {
  const telemetry::FlatRun doc = telemetry::FlattenRunJson(
      R"({"a":{"b":2},"arr":[1,2],"flag":true,"name":"ignored"})");
  ASSERT_EQ(doc.values.size(), 4u);
  EXPECT_DOUBLE_EQ(*doc.Find("a.b"), 2.0);
  EXPECT_DOUBLE_EQ(*doc.Find("arr.0"), 1.0);
  EXPECT_DOUBLE_EQ(*doc.Find("arr.1"), 2.0);
  EXPECT_DOUBLE_EQ(*doc.Find("flag"), 1.0);  // booleans compare as 0/1
  EXPECT_EQ(doc.Find("name"), nullptr);      // strings identify, not measure

  // JSONL lines key by their identity fields.
  const telemetry::FlatRun tl = telemetry::FlattenRunJson(
      trace::ToJsonl(TinyTimeline(), "p1"));
  EXPECT_NE(tl.Find("point.p1.window.0.deltas.core.insts"), nullptr);
  EXPECT_NE(tl.Find("point.p1.window.1.gauges.tele.link.occupancy"), nullptr);

  EXPECT_THROW(telemetry::FlattenRunJson("{\"a\":"), SimError);
  EXPECT_THROW(telemetry::FlattenRunJson(""), SimError);
}

TEST(CompareEngine, TolerancesGateDriftAndMissingKeys) {
  const telemetry::FlatRun base =
      telemetry::FlattenRunJson(R"({"cycles":1000,"ipc":2.0,"gone":1})");
  const telemetry::FlatRun head =
      telemetry::FlattenRunJson(R"({"cycles":1100,"ipc":2.0,"fresh":1})");

  telemetry::CompareOptions opts;
  opts.rel_tol = 0.02;
  telemetry::DriftReport rep = telemetry::CompareRuns(base, head, opts);
  EXPECT_EQ(rep.compared, 2u);
  EXPECT_EQ(rep.failed, 1u);  // cycles drifted 10% > 2%
  EXPECT_EQ(rep.missing, 2u);
  EXPECT_FALSE(rep.pass());
  // Failures sort first and the table renders them past any row cap.
  ASSERT_FALSE(rep.rows.empty());
  EXPECT_EQ(rep.rows[0].key, "cycles");
  const std::string table = telemetry::FormatDriftTable(rep, 0);
  EXPECT_NE(table.find("cycles"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
  EXPECT_NE(table.find("+10.00%"), std::string::npos);

  // A per-key override (longest matching prefix) absorbs the drift...
  opts.per_key.emplace_back("cycles", 0.25);
  EXPECT_TRUE(telemetry::CompareRuns(base, head, opts).pass());
  // ...and --fail-on-missing turns one-sided keys into failures.
  opts.fail_on_missing = true;
  telemetry::DriftReport strict = telemetry::CompareRuns(base, head, opts);
  EXPECT_EQ(strict.failed, 2u);

  // Key filtering restricts the comparison surface.
  telemetry::CompareOptions keyed;
  keyed.keys = {"ipc"};
  telemetry::DriftReport only_ipc = telemetry::CompareRuns(base, head, keyed);
  EXPECT_EQ(only_ipc.compared, 1u);
  EXPECT_TRUE(only_ipc.pass());
}

}  // namespace
}  // namespace graphpim
