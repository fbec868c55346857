// Parameterized property sweeps across substrate configurations.
#include <gtest/gtest.h>

#include "core/runner.h"
#include "cpu/core.h"
#include "graph/generator.h"
#include "hmc/cube.h"

namespace graphpim {
namespace {

// ---------------------------------------------------------------- HMC

class HmcTimingSweep : public ::testing::TestWithParam<double> {};

TEST_P(HmcTimingSweep, RowHitAlwaysFasterThanConflict) {
  hmc::HmcParams p;
  p.t_cl = p.t_rcd = p.t_rp = NsToTicks(GetParam());
  p.t_ras = 2 * p.t_cl;
  p.t_refi = 0;
  hmc::HmcCube cube(p);
  // Cold access, then a row hit, then a conflicting row in the same bank.
  hmc::Completion cold = cube.Read(0x0, 8, 0);
  Tick t1 = cold.internal_done + NsToTicks(1000.0);
  hmc::Completion hit = cube.Read(0x8, 8, t1);
  ASSERT_TRUE(hit.row_hit);
  Tick t2 = hit.internal_done + NsToTicks(1000.0);
  hmc::Completion conflict = cube.Read(64ull * 32 * 32 * 16, 8, t2);
  ASSERT_FALSE(conflict.row_hit);
  EXPECT_LT(hit.response_at_host - t1, conflict.response_at_host - t2);
}

INSTANTIATE_TEST_SUITE_P(Timings, HmcTimingSweep,
                         ::testing::Values(5.0, 13.75, 25.0, 50.0));

class LinkBwSweep : public ::testing::TestWithParam<double> {};

TEST_P(LinkBwSweep, SerializationShrinksWithBandwidth) {
  hmc::HmcParams slow;
  slow.link_bw_scale = GetParam();
  slow.t_refi = 0;
  hmc::HmcParams fast = slow;
  fast.link_bw_scale = GetParam() * 4.0;
  hmc::HmcCube a(slow);
  hmc::HmcCube b(fast);
  EXPECT_GE(a.Read(0, 64, 0).response_at_host, b.Read(0, 64, 0).response_at_host);
}

INSTANTIATE_TEST_SUITE_P(Scales, LinkBwSweep, ::testing::Values(0.1, 0.5, 1.0));

class FuSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuSweep, BusyTimeIndependentOfPoolSize) {
  hmc::HmcParams p;
  p.fus_per_vault = GetParam();
  p.t_refi = 0;
  hmc::HmcCube cube(p);
  for (int i = 0; i < 64; ++i) {
    cube.Atomic(static_cast<Addr>(i) * 4096, hmc::AtomicOp::kAdd16, hmc::Value16{},
                false, 0);
  }
  EXPECT_EQ(cube.TotalIntFuBusy(), 64 * p.fu_int_latency);
}

INSTANTIATE_TEST_SUITE_P(Pools, FuSweep, ::testing::Values(1u, 2u, 4u, 16u));

// ---------------------------------------------------------------- CPU

class NullMem : public cpu::MemoryInterface {
 public:
  cpu::MemOutcome Access(int, const cpu::MicroOp&, Tick when) override {
    cpu::MemOutcome out;
    out.complete = when + NsToTicks(10.0);
    out.retire_ready = out.complete;
    return out;
  }
};

class IssueWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(IssueWidthSweep, ThroughputScalesWithWidth) {
  NullMem mem;
  cpu::CoreParams p;
  p.issue_width = GetParam();
  cpu::OooCore core(0, p, &mem);
  cpu::UopStream trace(4000, cpu::MicroOp{});  // independent 1-cycle computes
  core.Reset(&trace);
  while (core.Advance(core.Now() + NsToTicks(100000.0)) != cpu::OooCore::Status::kDone) {
  }
  double cycles = TicksToNs(core.Now()) * p.freq_ghz;
  EXPECT_NEAR(cycles, 4000.0 / p.issue_width, 4000.0 / p.issue_width * 0.05 + 2);
}

INSTANTIATE_TEST_SUITE_P(Widths, IssueWidthSweep, ::testing::Values(1, 2, 4, 8));

class RobSweep : public ::testing::TestWithParam<int> {};

TEST_P(RobSweep, BiggerRobNeverSlowerOnIndependentLoads) {
  NullMem mem;
  auto run = [&](int rob) {
    cpu::CoreParams p;
    p.rob_size = rob;
    cpu::OooCore core(0, p, &mem);
    cpu::UopStream trace;
    for (int i = 0; i < 2000; ++i) {
      cpu::MicroOp op;
      op.type = cpu::OpType::kLoad;
      op.addr = static_cast<Addr>(i) * 64;
      trace.push_back(op);
    }
    core.Reset(&trace);
    while (core.Advance(core.Now() + NsToTicks(100000.0)) !=
           cpu::OooCore::Status::kDone) {
    }
    return core.Now();
  };
  EXPECT_GE(run(GetParam()), run(GetParam() * 2));
}

INSTANTIATE_TEST_SUITE_P(Robs, RobSweep, ::testing::Values(8, 32, 128));

// ---------------------------------------------------------------- Graph

class DegreeSweep : public ::testing::TestWithParam<double> {};

TEST_P(DegreeSweep, EdgeCountTracksDegree) {
  graph::RmatParams p;
  p.num_vertices = 2048;
  p.avg_degree = GetParam();
  graph::EdgeList el = graph::GenerateRmat(p);
  EXPECT_EQ(el.size(),
            static_cast<std::size_t>(GetParam() * el.num_vertices + 0.5));
}

INSTANTIATE_TEST_SUITE_P(Degrees, DegreeSweep, ::testing::Values(2.0, 8.0, 28.8));

// ------------------------------------------------------------- System

class CoreCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoreCountSweep, MoreCoresNeverSlower) {
  int n = GetParam();
  core::Experiment::Options o;
  o.num_threads = n;
  o.op_cap = 400'000;
  core::Experiment exp("ldbc", 2 * 1024, "dc", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = n;
  core::SimResults r = exp.Run(cfg);
  EXPECT_GT(r.cycles, 0u);
  // Compare against a single core replaying the same total work.
  core::Experiment::Options o1 = o;
  o1.num_threads = 1;
  core::Experiment exp1("ldbc", 2 * 1024, "dc", o1);
  core::SimConfig cfg1 = cfg;
  cfg1.num_cores = 1;
  core::SimResults r1 = exp1.Run(cfg1);
  EXPECT_LE(r.cycles, r1.cycles * 11 / 10);
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCountSweep, ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace graphpim
