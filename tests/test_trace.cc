// Tests for the interval log's barrier policy (trace::IntervalLog::Cut),
// trace export, delta conservation under both cut policies, and the
// sweep-journal phase sidecar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/report.h"
#include "core/runner.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "workloads/workload.h"

namespace graphpim {
namespace {

trace::IntervalLog TwoPhases() {
  trace::IntervalLog log;
  StatRegistry reg;
  reg.Add("hmc.reads", 10.0);
  reg.Add("core.insts", 100.0);
  log.Cut("superstep.0", 0, NsToTicks(50.0), reg);
  reg.Add("hmc.reads", 5.0);
  log.Cut("drain.1", NsToTicks(50.0), NsToTicks(80.0), reg);
  return log;
}

TEST(IntervalLog, CutsCarryDeltasNotTotals) {
  trace::IntervalLog log = TwoPhases();
  EXPECT_FALSE(log.windowed());
  ASSERT_EQ(log.intervals().size(), 2u);
  const trace::Interval& p0 = log.intervals()[0];
  EXPECT_EQ(p0.name, "superstep.0");
  ASSERT_EQ(p0.deltas.size(), 2u);  // name-sorted: core.insts, hmc.reads
  EXPECT_EQ(p0.deltas[0].first, "core.insts");
  EXPECT_DOUBLE_EQ(p0.deltas[0].second, 100.0);
  EXPECT_DOUBLE_EQ(p0.deltas[1].second, 10.0);
  EXPECT_TRUE(p0.gauges.empty());  // barrier cuts sample no gauges
  // Second phase: only hmc.reads moved, and by its delta, not its total.
  const trace::Interval& p1 = log.intervals()[1];
  ASSERT_EQ(p1.deltas.size(), 1u);
  EXPECT_EQ(p1.deltas[0].first, "hmc.reads");
  EXPECT_DOUBLE_EQ(p1.deltas[0].second, 5.0);
}

TEST(IntervalLog, ChromeTraceAndJsonlFormats) {
  trace::IntervalLog log = TwoPhases();
  const std::string chrome = trace::ToChromeTrace({trace::ToChromeEvents(log)});
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"superstep.0\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);

  const std::string jsonl = trace::ToJsonl(log);
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"phase\":\"drain.1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"hmc.reads\":5"), std::string::npos);
  // Phase lines carry no gauges object; window lines do.
  EXPECT_EQ(jsonl.find("\"gauges\""), std::string::npos);
}

TEST(IntervalLog, WriteTraceSelectsFormatByExtension) {
  trace::IntervalLog log = TwoPhases();
  const std::string base = ::testing::TempDir() + "/gp_trace_test";
  const std::vector<std::string> events = {trace::ToChromeEvents(log)};
  trace::WriteTrace(base + ".jsonl", events, trace::ToJsonl(log));
  trace::WriteTrace(base + ".json", events, trace::ToJsonl(log));
  std::ifstream a(base + ".jsonl");
  std::string first;
  std::getline(a, first);
  EXPECT_EQ(first.rfind("{\"phase\":", 0), 0u);
  std::ifstream b(base + ".json");
  std::string head;
  std::getline(b, head);
  EXPECT_NE(head.find("traceEvents"), std::string::npos);
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".json").c_str());
}

// The log covers the run from tick 0, each interval starting where the
// previous one ended.
void ExpectTilesFromZero(const trace::IntervalLog& log) {
  ASSERT_FALSE(log.empty());
  Tick prev_end = 0;
  for (const trace::Interval& iv : log.intervals()) {
    EXPECT_EQ(iv.start, prev_end);
    EXPECT_GE(iv.end, iv.start);
    prev_end = iv.end;
  }
}

// Every counter of the run's registry equals the sum of its deltas over
// the log, and the log moves no counter the registry lacks.
void ExpectConservesTotals(const StatRegistry& raw,
                           const trace::IntervalLog& log) {
  std::map<std::string, double> sums;
  for (const trace::Interval& iv : log.intervals()) {
    for (const auto& [k, v] : iv.deltas) sums[k] += v;
  }
  for (const auto& [k, v] : raw.AllItems()) {
    EXPECT_NEAR(sums[k], v, 1e-9 * std::max(1.0, std::fabs(v))) << k;
  }
  for (const auto& [k, v] : sums) {
    EXPECT_TRUE(raw.Has(k) || v == 0.0) << k;
  }
}

core::SimConfig LoggedConfig(core::Mode m) {
  core::SimConfig sc = core::SimConfig::Scaled(m);
  sc.num_cores = 4;
  sc.telemetry_window_ns = 1000.0;
  return sc;
}

core::Experiment LoggedExperiment(const std::string& workload) {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 3;
  eo.op_cap = 20'000;
  return core::Experiment("ldbc", 512, workload, eo);
}

// Runs every workload in every machine mode with both logs attached, the
// phase log (cut at BSP barriers) and the window log (cut at fixed
// windows), and hands each run to `check`.
template <typename Check>
void ForEachLoggedRun(Check check) {
  const core::Mode modes[] = {core::Mode::kBaseline, core::Mode::kUPei,
                              core::Mode::kGraphPim,
                              core::Mode::kUncacheNoPim};
  for (const std::string& w : workloads::AllWorkloadNames()) {
    const core::Experiment exp = LoggedExperiment(w);
    for (core::Mode m : modes) {
      SCOPED_TRACE(w + " in " + core::ToString(m));
      const core::SimConfig sc = LoggedConfig(m);
      trace::IntervalLog phases;
      trace::IntervalLog windows;
      core::RunOptions ro;
      ro.phases = &phases;
      ro.timeline = &windows;
      const core::SimResults r = exp.Run(sc, ro);
      check(exp, sc, r, phases, windows);
    }
  }
}

// A run overwrites the log attached at `slot`: one log attached to two
// runs ends equal to a fresh log attached to the second run alone.
void ExpectRunOverwritesLog(trace::IntervalLog* core::RunOptions::*slot) {
  const core::Experiment exp = LoggedExperiment("bfs");
  trace::IntervalLog reused;
  core::RunOptions ro;
  ro.*slot = &reused;
  exp.Run(LoggedConfig(core::Mode::kGraphPim), ro);
  exp.Run(LoggedConfig(core::Mode::kBaseline), ro);
  trace::IntervalLog fresh;
  core::RunOptions fo;
  fo.*slot = &fresh;
  exp.Run(LoggedConfig(core::Mode::kBaseline), fo);
  EXPECT_EQ(trace::ToJsonl(reused), trace::ToJsonl(fresh));
  EXPECT_EQ(reused.dropped(), fresh.dropped());
}

// The barrier policy through the run loop: over every workload in every
// machine mode, the phase log tiles the run from tick 0 and sums back to
// every counter of the run's totals.
TEST(PhaseLog, RunSimulationPhasesSumToTotals) {
  ForEachLoggedRun([](const core::Experiment& exp, const core::SimConfig& sc,
                      const core::SimResults& r,
                      const trace::IntervalLog& phases,
                      const trace::IntervalLog&) {
    ExpectTilesFromZero(phases);
    ExpectConservesTotals(r.raw, phases);
    EXPECT_FALSE(phases.windowed());
    // The final phase is the drain; earlier ones are supersteps.
    EXPECT_EQ(phases.intervals().back().name.rfind("drain.", 0), 0u);
    // Instrumentation must not perturb the results.
    EXPECT_EQ(core::ToJson(r), core::ToJson(exp.Run(sc)));
  });
  ExpectRunOverwritesLog(&core::RunOptions::phases);
}

// The window policy through the run loop: over every workload in every
// machine mode, the window log tiles the run from tick 0, sums back to
// every counter of the run's totals, and samples the gauges at each cut.
TEST(TelemetryEndToEnd, WindowDeltasConserveRunTotals) {
  ForEachLoggedRun([](const core::Experiment&, const core::SimConfig&,
                      const core::SimResults& r, const trace::IntervalLog&,
                      const trace::IntervalLog& windows) {
    ExpectTilesFromZero(windows);
    ExpectConservesTotals(r.raw, windows);
    EXPECT_TRUE(windows.windowed());
    EXPECT_EQ(windows.dropped(), 0u);
    for (const trace::Interval& iv : windows.intervals()) {
      ASSERT_FALSE(iv.gauges.empty());
      EXPECT_EQ(iv.gauges[0].first, "tele.pou.inflight");
    }
  });
  ExpectRunOverwritesLog(&core::RunOptions::timeline);
}

TEST(Journal, PhaseSidecarLinesAreWrittenAndSkippedOnLoad) {
  const std::string path = ::testing::TempDir() + "/gp_phases_journal.jsonl";
  std::remove(path.c_str());

  exec::SweepGrid grid;
  grid.workloads = {"bfs"};
  grid.profiles = {"ldbc"};
  grid.vertices = 512;
  grid.sim_threads = 2;
  grid.op_cap = 10'000;
  core::SimConfig c = core::SimConfig::Scaled(core::Mode::kGraphPim);
  c.num_cores = 2;
  grid.configs = {c};
  grid.config_names = {"graphpim"};

  exec::SweepRunner::Options opts;
  opts.jobs = 1;
  opts.journal_path = path;
  opts.journal_phases = true;
  exec::SweepResultTable t = exec::SweepRunner(opts).Run(grid);
  ASSERT_EQ(t.failed_rows, 0u);

  // The journal holds header + row + at least one phases_for sidecar.
  std::ifstream in(path);
  std::string line;
  std::size_t sidecars = 0;
  while (std::getline(in, line)) {
    if (line.rfind("{\"phases_for\":", 0) == 0) {
      ++sidecars;
      EXPECT_NE(line.find("\"phases\":["), std::string::npos);
      EXPECT_NE(line.find("superstep."), std::string::npos);
    }
  }
  EXPECT_GE(sidecars, 1u);

  // Sidecars are annotations: loading must restore the row and count
  // nothing as dropped.
  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(path, grid, &jd));
  EXPECT_EQ(jd.rows.size(), 1u);
  EXPECT_EQ(jd.dropped_lines, 0u);
  EXPECT_EQ(core::ToJson(jd.rows[0].results), core::ToJson(t.rows[0].results));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphpim
