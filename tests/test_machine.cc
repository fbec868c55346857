// core::Machine reuse: a machine reset between replays must give, replay
// by replay, what a freshly built machine gives — the end tick, every
// touched counter, the spans, the persist log and both interval logs — in
// every mode, on every config whose state the reset has to restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/machine.h"
#include "core/sim_config.h"
#include "serve/query.h"
#include "serve/traffic.h"
#include "workloads/trace.h"

namespace graphpim {
namespace {

using core::Mode;
using core::RunOptions;
using core::SimConfig;

constexpr Mode kModes[] = {Mode::kBaseline, Mode::kUPei, Mode::kGraphPim,
                           Mode::kUncacheNoPim};

// Everything one replay hands back.
struct Replayed {
  Tick end = 0;
  std::vector<std::pair<std::string, double>> counters;
  std::string spans;
  std::string persist;
  std::string phases;
  std::string windows;
};

std::string PersistText(const pmem::PersistLog& log) {
  std::string s = StrFormat("end %llu\n",
                            static_cast<unsigned long long>(log.end_tick));
  for (const pmem::PersistStoreEvent& e : log.stores) {
    s += StrFormat("%d %llu %llx %u %llu %llu\n", e.core,
                   static_cast<unsigned long long>(e.ordinal),
                   static_cast<unsigned long long>(e.line), e.size,
                   static_cast<unsigned long long>(e.issue),
                   static_cast<unsigned long long>(e.persist));
  }
  return s;
}

// Replays `trace` on `m`, with every log attached when `attach` is set.
// A bare replay leaves its spans and persist log inside the machine, so
// the next replay must drop them.
Replayed ReplayOn(core::Machine& m, const workloads::Trace& trace,
                  bool attach) {
  trace::IntervalLog phases;
  trace::IntervalLog windows;
  trace::SpanLog spans;
  pmem::PersistLog persist;
  RunOptions ro;
  if (attach) {
    ro.phases = &phases;
    ro.spans = &spans;
    ro.persist = &persist;
    ro.timeline = &windows;
  }
  Replayed r;
  r.end = m.Replay(trace, ro);
  r.counters = m.stats().AllItems();
  r.spans = trace::SpansToJsonl(spans);
  r.persist = PersistText(persist);
  r.phases = trace::ToJsonl(phases);
  r.windows = trace::ToJsonl(windows);
  return r;
}

class Machine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    serve::ServedGraph::Options go;
    go.num_vertices = 2048;
    go.num_tenants = 2;
    go.seed = 7;
    sg_ = new serve::ServedGraph(go);
    traces_ = new std::vector<workloads::Trace>(BuildTraces(*sg_));
  }

  static void TearDownTestSuite() {
    delete traces_;
    delete sg_;
    traces_ = nullptr;
    sg_ = nullptr;
  }

  // The replay sequence: two serve batches of different widths, an empty
  // trace, three times a trace whose streams meet at barriers and store,
  // flush and fence PMR lines, and the first batch again. The odd-numbered
  // replays carry the logs, so the barrier trace runs bare between two
  // logged runs of itself.
  static std::vector<workloads::Trace> BuildTraces(
      const serve::ServedGraph& sg) {
    serve::TrafficSpec ts;
    ts.num_requests = 16;
    ts.num_vertices = sg.graph().num_vertices();
    ts.seed = 7;
    const std::vector<serve::ServeRequest> reqs = serve::GenerateSchedule(ts);
    serve::QueryParams qp;
    qp.max_hops = 2;
    qp.max_frontier = 16;
    qp.op_budget = 600;
    std::vector<workloads::Trace> out;
    std::size_t next = 0;
    auto batch = [&](int width) {
      workloads::TraceBuilder tb(width, &sg.space(), 0.06, 11 + next);
      for (int s = 0; s < width; ++s) {
        serve::EmitQuery(sg, reqs[next++], qp, tb, s);
      }
      return tb.Take();
    };
    out.push_back(batch(4));
    out.push_back(batch(3));
    out.push_back(workloads::Trace{});
    {
      workloads::TraceBuilder tb(4, &sg.space(), 0.06, 29);
      // Each stream starts one line past where it ends (below), so a
      // replay after a replay of this trace finds a stale prefetch stream
      // unless the reset dropped it.
      auto stream_line = [&sg](int s, int k) {
        return sg.QueueAddr(0, 0) + static_cast<Addr>(s) * 4096 +
               static_cast<Addr>(k) * 64;
      };
      for (int s = 0; s < 4; ++s) tb.Load(s, stream_line(s, 3), 8);
      for (int step = 0; step < 2; ++step) {
        for (int s = 0; s < 4; ++s) {
          const serve::ServeRequest& r = reqs[next++];
          serve::EmitQuery(sg, r, qp, tb, s);
          const Addr a = sg.carve(r.tenant).PropAddr(r.root);
          tb.Store(s, a, 8);
          tb.Flush(s, a);
          tb.Fence(s);
        }
        tb.Barrier();
      }
      // One store per stream that no fence covers: a replay ends with
      // pending persist state, which the next replay must not inherit.
      for (int s = 0; s < 4; ++s) {
        const serve::ServeRequest& r = reqs[s];
        tb.Store(s, sg.carve(r.tenant).PropAddr(r.root), 8);
        for (int k = 0; k < 3; ++k) tb.Load(s, stream_line(s, k), 8);
      }
      out.push_back(tb.Take());
    }
    out.push_back(out.back());
    out.push_back(out.back());
    out.push_back(out.front());
    return out;
  }

  // Replays every trace on one machine, and each on a fresh machine, in
  // every mode, with the logs attached to the odd-numbered replays only;
  // returns the reused machine's replays for coverage checks.
  static std::vector<Replayed> ExpectReuseMatchesFresh(SimConfig cfg) {
    std::vector<Replayed> all;
    for (Mode mode : kModes) {
      cfg.mode = mode;
      core::Machine reused(cfg, sg_->pmr_base(), sg_->pmr_end());
      for (std::size_t i = 0; i < traces_->size(); ++i) {
        const workloads::Trace& t = (*traces_)[i];
        const bool attach = i % 2 == 1;
        const std::string where =
            StrFormat("%s, trace %zu", core::ToString(mode), i);
        Replayed a = ReplayOn(reused, t, attach);
        core::Machine fresh(cfg, sg_->pmr_base(), sg_->pmr_end());
        const Replayed b = ReplayOn(fresh, t, attach);
        EXPECT_EQ(a.end, b.end) << where;
        EXPECT_EQ(a.counters, b.counters) << where;
        EXPECT_EQ(a.spans, b.spans) << where;
        EXPECT_EQ(a.persist, b.persist) << where;
        EXPECT_EQ(a.phases, b.phases) << where;
        EXPECT_EQ(a.windows, b.windows) << where;
        all.push_back(std::move(a));
      }
    }
    return all;
  }

  static double Value(const Replayed& r, const std::string& name) {
    for (const auto& [k, v] : r.counters) {
      if (k == name) return v;
    }
    return 0.0;
  }

  static double Sum(const std::vector<Replayed>& runs,
                    const std::string& name) {
    double sum = 0.0;
    for (const Replayed& r : runs) sum += Value(r, name);
    return sum;
  }

  static serve::ServedGraph* sg_;
  static std::vector<workloads::Trace>* traces_;
};

serve::ServedGraph* Machine::sg_ = nullptr;
std::vector<workloads::Trace>* Machine::traces_ = nullptr;

TEST_F(Machine, ReuseMatchesFreshOnTheDefaultConfig) {
  const auto runs = ExpectReuseMatchesFresh(SimConfig::Scaled(Mode::kBaseline));
  EXPECT_GT(Sum(runs, "core.insts"), 0.0);
  EXPECT_GT(Sum(runs, "hmc.atomics"), 0.0);
  // The empty trace ends at tick 0 with nothing counted.
  EXPECT_EQ(runs[2].end, 0u);
  EXPECT_EQ(Value(runs[2], "core.insts"), 0.0);
  // The barrier trace cuts one phase per superstep plus the drain.
  EXPECT_NE(runs[3].phases.find("superstep.1"), std::string::npos);
}

TEST_F(Machine, ReuseMatchesFreshOnAFaultyTwoCubeStar) {
  SimConfig cfg = SimConfig::Scaled(Mode::kBaseline);
  cfg.hmc.num_cubes = 2;
  cfg.hmc.cube_topology = hmc::CubeTopology::kStar;
  cfg.hmc.fault.link_ber = 1e-5;
  cfg.hmc.fault.poison_ppm = 50000;
  cfg.hmc.fault.vault_stall_ppm = 50000;
  const auto runs = ExpectReuseMatchesFresh(cfg);
  EXPECT_GT(Sum(runs, "fault.link_retries"), 0.0);
  EXPECT_GT(Sum(runs, "fault.poisoned_atomics"), 0.0);
  EXPECT_GT(Sum(runs, "fault.vault_stalls"), 0.0);
  EXPECT_GT(Sum(runs, "hmc.remote_ops"), 0.0);
  // The network's size counters are set at build time and restored by
  // every reset: each replay reports them once.
  for (const Replayed& r : runs) {
    EXPECT_EQ(Value(r, "hmc.cubes"), 2.0);
    EXPECT_EQ(Value(r, "hmc.capacity_gib"), 16.0);
  }
}

TEST_F(Machine, ReuseMatchesFreshWithThePersistDomain) {
  SimConfig cfg = SimConfig::Scaled(Mode::kBaseline);
  cfg.pmem.enable = true;
  const auto runs = ExpectReuseMatchesFresh(cfg);
  EXPECT_GT(Sum(runs, "pmem.persisted_stores"), 0.0);
  // Past its "end" line, the barrier trace's log holds one line per store.
  EXPECT_GT(std::count(runs[3].persist.begin(), runs[3].persist.end(), '\n'),
            1);
}

TEST_F(Machine, ReuseMatchesFreshWithSampledSpans) {
  SimConfig cfg = SimConfig::Scaled(Mode::kBaseline);
  cfg.trace_sample_rate = 0.05;
  const auto runs = ExpectReuseMatchesFresh(cfg);
  EXPECT_FALSE(runs[1].spans.empty());
  EXPECT_GT(Sum(runs, "span.sampled"), 0.0);
}

TEST_F(Machine, ReuseMatchesFreshWithTelemetryWindows) {
  SimConfig cfg = SimConfig::Scaled(Mode::kBaseline);
  cfg.telemetry_window_ns = 200.0;
  const auto runs = ExpectReuseMatchesFresh(cfg);
  EXPECT_NE(runs[1].windows.find("tele.link.occupancy"), std::string::npos);
}

}  // namespace
}  // namespace graphpim
