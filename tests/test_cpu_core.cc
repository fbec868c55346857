// Tests for the OoO core timestamp model and the PIM offload unit.
#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.h"
#include "cpu/pou.h"

namespace graphpim::cpu {
namespace {

// Scripted memory interface: fixed latency per access type, optional
// serializing atomics, records call times.
class MockMem : public MemoryInterface {
 public:
  Tick load_lat = NsToTicks(10.0);
  Tick atomic_lat = NsToTicks(50.0);
  bool serialize_atomics = false;
  Tick stall_until = 0;
  std::vector<Tick> calls;

  MemOutcome Access(int /*core*/, const MicroOp& op, Tick when) override {
    calls.push_back(when);
    MemOutcome out;
    if (op.type == OpType::kAtomic) {
      out.complete = when + atomic_lat;
      out.retire_ready = op.WantReturn() ? out.complete : when;
      out.serializing = serialize_atomics;
    } else {
      out.complete = when + load_lat;
      out.retire_ready = out.complete;
    }
    out.issue_stall_until = stall_until;
    return out;
  }
};

MicroOp Comp(int lat = 1, bool dep = false) {
  MicroOp op;
  op.type = OpType::kCompute;
  op.compute_lat = static_cast<std::uint8_t>(lat);
  if (dep) op.flags |= kFlagDepPrev;
  return op;
}

MicroOp Ld(Addr a, bool dep = false) {
  MicroOp op;
  op.type = OpType::kLoad;
  op.addr = a;
  op.size = 8;
  if (dep) op.flags |= kFlagDepPrev;
  return op;
}

MicroOp At(Addr a, bool ret, bool dep = false) {
  MicroOp op;
  op.type = OpType::kAtomic;
  op.addr = a;
  op.size = 8;
  if (ret) op.flags |= kFlagWantReturn;
  if (dep) op.flags |= kFlagDepPrev;
  return op;
}

MicroOp Br(bool mispredict, bool dep = true) {
  MicroOp op;
  op.type = OpType::kBranch;
  if (dep) op.flags |= kFlagDepPrev;
  if (mispredict) op.flags |= kFlagMispredict;
  return op;
}

MicroOp Barrier(std::uint64_t id = 1) {
  MicroOp op;
  op.type = OpType::kBarrier;
  op.addr = id;
  return op;
}

Tick RunAll(OooCore& core) {
  while (true) {
    OooCore::Status s = core.Advance(core.Now() + NsToTicks(10000.0));
    if (s == OooCore::Status::kDone) break;
    if (s == OooCore::Status::kBarrier) core.ReleaseBarrier(core.BarrierArrival());
  }
  return core.Now();
}

TEST(OooCore, IssueWidthBoundsThroughput) {
  MockMem mem;
  CoreParams p;
  StatRegistry stats;
  OooCore core(0, p, &mem, &stats);
  cpu::UopStream trace(1000, Comp());
  core.Reset(&trace);
  Tick end = RunAll(core);
  // 1000 independent 1-cycle ops at 4/cycle = 250 cycles = 125ns.
  EXPECT_NEAR(TicksToNs(end), 125.0, 5.0);
  EXPECT_DOUBLE_EQ(stats.Get("core.insts"), 1000);
}

TEST(OooCore, DependentChainSerializes) {
  MockMem mem;
  OooCore core(0, CoreParams(), &mem);
  cpu::UopStream trace(1000, Comp(1, /*dep=*/true));
  core.Reset(&trace);
  Tick end = RunAll(core);
  // A 1000-deep dependency chain of 1-cycle ops takes ~1000 cycles.
  EXPECT_NEAR(TicksToNs(end), 500.0, 10.0);
}

TEST(OooCore, IndependentLoadsOverlap) {
  MockMem mem;
  OooCore core(0, CoreParams(), &mem);
  cpu::UopStream trace;
  for (int i = 0; i < 64; ++i) trace.push_back(Ld(static_cast<Addr>(i) * 64));
  core.Reset(&trace);
  Tick end = RunAll(core);
  // 64 independent 10ns loads overlap: far less than 640ns.
  EXPECT_LT(TicksToNs(end), 40.0);
}

TEST(OooCore, DependentLoadsChain) {
  MockMem mem;
  OooCore core(0, CoreParams(), &mem);
  cpu::UopStream trace;
  for (int i = 0; i < 10; ++i) trace.push_back(Ld(0, /*dep=*/true));
  core.Reset(&trace);
  Tick end = RunAll(core);
  EXPECT_GE(TicksToNs(end), 100.0);  // 10 x 10ns serialized
}

TEST(OooCore, RobLimitsInFlightWork) {
  MockMem mem;
  mem.load_lat = NsToTicks(100.0);
  CoreParams p;
  p.rob_size = 8;
  OooCore core(0, p, &mem);
  cpu::UopStream trace(80, Ld(0));
  core.Reset(&trace);
  Tick end = RunAll(core);
  // With 8 ROB entries, at most 8 loads overlap: >= 10 waves x 100ns.
  EXPECT_GE(TicksToNs(end), 900.0);
}

TEST(OooCore, SerializingAtomicFreezesPipeline) {
  MockMem mem;
  mem.serialize_atomics = true;
  StatRegistry stats;
  OooCore core(0, CoreParams(), &mem, &stats);
  cpu::UopStream with;
  cpu::UopStream without;
  for (int i = 0; i < 100; ++i) {
    with.push_back(At(0, false));
    with.push_back(Comp());
    without.push_back(Comp());
    without.push_back(Comp());
  }
  core.Reset(&with);
  Tick t_with = RunAll(core);
  const double incore = stats.Get("core.atomic_incore_ticks");
  core.Reset(&without);
  Tick t_without = RunAll(core);
  EXPECT_GT(t_with, 5 * t_without);
  EXPECT_GT(incore, 0.0);
}

TEST(OooCore, OffloadedAtomicDoesNotFreeze) {
  MockMem mem;
  mem.serialize_atomics = false;
  StatRegistry stats;
  OooCore core(0, CoreParams(), &mem, &stats);
  cpu::UopStream trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back(At(0, /*ret=*/false));  // posted
    trace.push_back(Comp());
  }
  core.Reset(&trace);
  Tick end = RunAll(core);
  // Posted offloaded atomics behave like cheap ops: ~200 ops / 4 wide.
  EXPECT_LT(TicksToNs(end), 60.0);
  EXPECT_DOUBLE_EQ(stats.Get("core.atomics"), 100);
}

TEST(OooCore, AtomicWithReturnDelaysDependent) {
  MockMem mem;
  OooCore core(0, CoreParams(), &mem);
  cpu::UopStream trace{At(0, /*ret=*/true), Comp(1, /*dep=*/true)};
  core.Reset(&trace);
  Tick end = RunAll(core);
  EXPECT_GE(TicksToNs(end), 50.0);  // dependent waits for the CAS result
}

TEST(OooCore, MispredictAddsPenalty) {
  MockMem mem;
  CoreParams p;
  StatRegistry stats;
  OooCore core(0, p, &mem, &stats);
  cpu::UopStream clean;
  cpu::UopStream dirty;
  for (int i = 0; i < 100; ++i) {
    clean.push_back(Comp());
    clean.push_back(Br(false, false));
    dirty.push_back(Comp());
    dirty.push_back(Br(true, false));
  }
  core.Reset(&clean);
  Tick t_clean = RunAll(core);
  const double bs_clean = stats.Get("core.badspec_ticks");
  // The counters belong to the registry, not the core: clear them so the
  // second run's counts stand alone.
  stats.Reset();
  core.Reset(&dirty);
  Tick t_dirty = RunAll(core);
  EXPECT_GT(t_dirty, t_clean);
  EXPECT_DOUBLE_EQ(bs_clean, 0.0);
  EXPECT_GT(stats.Get("core.badspec_ticks"), 0.0);
  EXPECT_DOUBLE_EQ(stats.Get("core.mispredicts"), 100);
}

TEST(OooCore, IssueStallBackpressure) {
  MockMem mem;
  mem.stall_until = NsToTicks(500.0);
  OooCore core(0, CoreParams(), &mem);
  cpu::UopStream trace{Ld(0), Comp()};
  core.Reset(&trace);
  Tick end = RunAll(core);
  EXPECT_GE(TicksToNs(end), 500.0);
}

TEST(OooCore, BarrierReportsArrivalOfAllWork) {
  MockMem mem;
  mem.load_lat = NsToTicks(100.0);
  OooCore core(0, CoreParams(), &mem);
  cpu::UopStream trace{Ld(0), Barrier(), Comp()};
  core.Reset(&trace);
  OooCore::Status s = core.Advance(NsToTicks(1e6));
  ASSERT_EQ(s, OooCore::Status::kBarrier);
  EXPECT_GE(TicksToNs(core.BarrierArrival()), 100.0);
  core.ReleaseBarrier(NsToTicks(1000.0));
  EXPECT_EQ(core.Advance(NsToTicks(1e7)), OooCore::Status::kDone);
  EXPECT_GE(TicksToNs(core.Now()), 1000.0);
}

TEST(OooCore, QuantumPausesAndResumes) {
  MockMem mem;
  StatRegistry stats;
  OooCore core(0, CoreParams(), &mem, &stats);
  cpu::UopStream trace(10000, Comp(1, true));
  core.Reset(&trace);
  EXPECT_EQ(core.Advance(NsToTicks(10.0)), OooCore::Status::kRunning);
  const double insts_after_first = stats.Get("core.insts");
  EXPECT_LT(insts_after_first, 10000.0);
  EXPECT_GT(insts_after_first, 0.0);
  RunAll(core);
  EXPECT_DOUBLE_EQ(stats.Get("core.insts"), 10000);
}

TEST(OooCore, StatsCountOpKinds) {
  MockMem mem;
  StatRegistry stats;
  OooCore core(0, CoreParams(), &mem, &stats);
  MicroOp st;
  st.type = OpType::kStore;
  cpu::UopStream trace{Comp(), Br(false, false), Ld(0), st, At(0, true)};
  core.Reset(&trace);
  RunAll(core);
    EXPECT_DOUBLE_EQ(stats.Get("core.computes"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("core.branches"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("core.loads"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("core.stores"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("core.atomics"), 1);
  EXPECT_DOUBLE_EQ(stats.Get("core.insts"), 5);
}

TEST(Pou, PmrRangeCheck) {
  PimOffloadUnit pou;
  pou.SetPmr(0x1000, 0x2000);
  EXPECT_TRUE(pou.InPmr(0x1000));
  EXPECT_TRUE(pou.InPmr(0x1FFF));
  EXPECT_FALSE(pou.InPmr(0x2000));
  EXPECT_FALSE(pou.InPmr(0xFFF));
}

TEST(Pou, OffloadsOnlyPmrAtomics) {
  PimOffloadUnit pou;
  pou.SetPmr(0x1000, 0x2000);
  EXPECT_TRUE(pou.ShouldOffload(At(0x1800, false)));
  EXPECT_FALSE(pou.ShouldOffload(At(0x800, false)));   // outside PMR
  EXPECT_FALSE(pou.ShouldOffload(Ld(0x1800)));         // not an atomic
}

TEST(Pou, AllPmrAccessesBypassCache) {
  PimOffloadUnit pou;
  pou.SetPmr(0x1000, 0x2000);
  EXPECT_TRUE(pou.BypassesCache(Ld(0x1800)));
  EXPECT_TRUE(pou.BypassesCache(At(0x1800, true)));
  EXPECT_FALSE(pou.BypassesCache(Ld(0x800)));
  EXPECT_FALSE(pou.BypassesCache(Comp()));
}

}  // namespace
}  // namespace graphpim::cpu
