// Tests for the replay path (DESIGN.md §15): the tiled SoA trace, its
// packed lane encoding, and the column-wise walk OooCore::Advance makes
// over it (tile-boundary barriers, multi-tile rewrites, footprint
// accounting), the ThreadChunk split the workloads use to hand vertices
// to trace streams, and the removal of the turn-token sharded engine's
// knob.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "core/report.h"
#include "core/runner.h"
#include "cpu/core.h"
#include "cpu/uop_stream.h"
#include "exec/sweep.h"
#include "graph/region.h"
#include "workloads/trace.h"

namespace graphpim {
namespace {

TEST(ReplayThreadChunk, ZeroItems) {
  for (int t = 0; t < 4; ++t) {
    const auto [b, e] = workloads::ThreadChunk(0, t, 4);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 0u);
  }
}

TEST(ReplayThreadChunk, MoreThreadsThanItems) {
  // 3 items over 8 threads: the first three threads get one item each,
  // the rest own empty ranges; coverage is contiguous and disjoint.
  std::size_t expected_begin = 0;
  for (int t = 0; t < 8; ++t) {
    const auto [b, e] = workloads::ThreadChunk(3, t, 8);
    EXPECT_EQ(b, expected_begin) << "thread " << t;
    EXPECT_EQ(e - b, t < 3 ? 1u : 0u) << "thread " << t;
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 3u);
}

TEST(ReplayThreadChunk, RemainderSpreadsOverLeadingThreads) {
  std::size_t expected_begin = 0;
  for (int t = 0; t < 3; ++t) {
    const auto [b, e] = workloads::ThreadChunk(10, t, 3);
    EXPECT_EQ(b, expected_begin);
    EXPECT_EQ(e - b, t == 0 ? 4u : 3u);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 10u);
}

// Minimal memory model so OooCore can replay hand-built streams.
class FlatMem : public cpu::MemoryInterface {
 public:
  cpu::MemOutcome Access(int /*core*/, const cpu::MicroOp& /*op*/,
                         Tick when) override {
    cpu::MemOutcome out;
    out.complete = when + NsToTicks(1.0);
    out.retire_ready = out.complete;
    return out;
  }
};

cpu::MicroOp ComputeOp() {
  cpu::MicroOp op;
  op.type = cpu::OpType::kCompute;
  op.compute_lat = 1;
  return op;
}

cpu::MicroOp BarrierOp() {
  cpu::MicroOp op;
  op.type = cpu::OpType::kBarrier;
  op.addr = 1;
  return op;
}

// Replays `stream` to completion, returning the number of kBarrier stops.
int CountBarrierStops(const cpu::UopStream& stream, double* insts_out) {
  FlatMem mem;
  StatRegistry stats;
  cpu::OooCore core(0, cpu::CoreParams(), &mem, &stats);
  core.Reset(&stream);
  int barriers = 0;
  while (true) {
    const cpu::OooCore::Status s = core.Advance(core.Now() + NsToTicks(1e6));
    if (s == cpu::OooCore::Status::kDone) break;
    if (s != cpu::OooCore::Status::kBarrier) {
      ADD_FAILURE() << "unexpected Advance status";
      break;
    }
    ++barriers;
    core.ReleaseBarrier(core.BarrierArrival());
  }
  if (insts_out != nullptr) *insts_out = stats.Get("core.insts");
  return barriers;
}

// gtest's ASSERT_ inside a non-void helper needs this wrapper shape.
void ExpectBarrierWalk(std::size_t barrier_pos) {
  // barrier_pos ops, the barrier, then a tail that crosses at least one
  // more lane — exercises the column-wise walk around the 1024-op tile
  // boundary (last lane of tile N, first lane of tile N+1).
  cpu::UopStream stream;
  for (std::size_t i = 0; i < barrier_pos; ++i) stream.push_back(ComputeOp());
  stream.push_back(BarrierOp());
  for (std::size_t i = 0; i < 10; ++i) stream.push_back(ComputeOp());

  double insts = 0.0;
  const int barriers = CountBarrierStops(stream, &insts);
  EXPECT_EQ(barriers, 1) << "barrier at index " << barrier_pos;
  // The barrier itself retires no instruction.
  EXPECT_DOUBLE_EQ(insts, static_cast<double>(barrier_pos + 10))
      << "barrier at index " << barrier_pos;
}

TEST(ReplayTileWalk, BarrierAtTileBoundaries) {
  ExpectBarrierWalk(cpu::kTileOps - 1);  // last lane of tile 0
  ExpectBarrierWalk(cpu::kTileOps);      // first lane of tile 1
  ExpectBarrierWalk(cpu::kTileOps + 1);  // one past the boundary
  ExpectBarrierWalk(2 * cpu::kTileOps);  // first lane of tile 2
}

TEST(ReplayTileWalk, BackToBackBarriersAcrossTiles) {
  cpu::UopStream stream;
  for (std::size_t i = 0; i < cpu::kTileOps - 1; ++i) {
    stream.push_back(ComputeOp());
  }
  stream.push_back(BarrierOp());  // last lane of tile 0
  stream.push_back(BarrierOp());  // first lane of tile 1
  stream.push_back(ComputeOp());

  double insts = 0.0;
  const int barriers = CountBarrierStops(stream, &insts);
  EXPECT_EQ(barriers, 2);
  EXPECT_DOUBLE_EQ(insts, static_cast<double>(cpu::kTileOps));
}

TEST(ReplayTiles, ReplaceAtomicsWithPlainPreservesMultiTileStreams) {
  // A stream spanning three tiles with atomics sprinkled across tile
  // boundaries: the transform re-tiles its output (each atomic becomes a
  // load + dependent store), and every surviving op must keep its column
  // values bit for bit.
  workloads::Trace trace;
  cpu::UopStream s;
  const std::size_t total = 2 * cpu::kTileOps + 500;
  std::size_t atomics = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (i % 97 == 0) {
      cpu::MicroOp op;
      op.type = cpu::OpType::kAtomic;
      op.addr = 0x1000 + i * 8;
      op.aop = hmc::AtomicOp::kDualAdd8;
      op.size = 8;
      s.push_back(op);
      ++atomics;
    } else {
      s.push_back(ComputeOp());
    }
  }
  trace.streams.push_back(std::move(s));

  const workloads::Trace plain = workloads::ReplaceAtomicsWithPlain(trace);
  ASSERT_EQ(plain.streams.size(), 1u);
  const cpu::UopStream& out = plain.streams[0];
  EXPECT_EQ(out.size(), total + atomics);  // each atomic -> load + store
  EXPECT_EQ(out.num_tiles(), (out.size() + cpu::kTileMask) >> cpu::kTileShift);

  std::size_t j = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const cpu::MicroOp orig = trace.streams[0][i];
    if (orig.type == cpu::OpType::kAtomic) {
      const cpu::MicroOp ld = out[j++];
      const cpu::MicroOp st = out[j++];
      EXPECT_EQ(ld.type, cpu::OpType::kLoad);
      EXPECT_EQ(ld.addr, orig.addr);
      EXPECT_EQ(st.type, cpu::OpType::kStore);
      EXPECT_EQ(st.addr, orig.addr);
      EXPECT_NE(st.flags & cpu::kFlagDepPrev, 0u);
    } else {
      const cpu::MicroOp kept = out[j++];
      EXPECT_EQ(kept.type, orig.type);
      EXPECT_EQ(kept.addr, orig.addr);
      EXPECT_EQ(kept.flags, orig.flags);
      EXPECT_EQ(kept.compute_lat, orig.compute_lat);
    }
  }
  EXPECT_EQ(j, out.size());
}

// Reads every field of `got` against `want`; `how` names the read path.
void ExpectSameOp(const cpu::MicroOp& got, const cpu::MicroOp& want,
                  std::size_t i, const char* how) {
  EXPECT_EQ(got.addr, want.addr) << how << " op " << i;
  EXPECT_EQ(got.type, want.type) << how << " op " << i;
  EXPECT_EQ(got.comp, want.comp) << how << " op " << i;
  EXPECT_EQ(got.aop, want.aop) << how << " op " << i;
  EXPECT_EQ(got.flags, want.flags) << how << " op " << i;
  EXPECT_EQ(got.size, want.size) << how << " op " << i;
  EXPECT_EQ(got.compute_lat, want.compute_lat) << how << " op " << i;
}

TEST(ReplayTiles, PackedFieldsRoundTrip) {
  // 9 bytes per op: the type column, the packed word and the low address.
  EXPECT_EQ(sizeof(cpu::TraceTile), 9216u);

  using AS = graph::AddressSpace;
  const Addr kAddrs[] = {0,
                         (Addr{1} << 32) - 1,
                         Addr{1} << 32,
                         AS::kMetaBase,
                         AS::kMetaBase + AS::kSegmentSize - 1,
                         AS::kStructureBase,
                         AS::kStructureBase + AS::kSegmentSize - 1,
                         AS::kPmrBase,
                         AS::kPmrBase + AS::kSegmentSize - 1,
                         cpu::kTraceAddrLimit - 1};
  const std::uint8_t kBytes[] = {0, 1, 255};
  constexpr std::size_t kNumAops =
      static_cast<std::size_t>(hmc::AtomicOp::kNumOps);
  // Each field cycles through its values with its own period, so every
  // value of every field occurs, beside many values of the other fields.
  std::vector<cpu::MicroOp> ops;
  for (std::size_t i = 0; i < 3360; ++i) {
    cpu::MicroOp op;
    op.addr = kAddrs[i % std::size(kAddrs)];
    op.type = static_cast<cpu::OpType>(i % 8);
    op.comp = static_cast<DataComponent>(i % 3);
    op.aop = static_cast<hmc::AtomicOp>(i % kNumAops);
    op.flags = static_cast<std::uint8_t>(i % 32);
    op.size = kBytes[i % 3];
    op.compute_lat = kBytes[(i / 3) % 3];
    ops.push_back(op);
  }

  // Start 100 lanes before the first tile boundary.
  cpu::UopStream s;
  const std::size_t first = cpu::kTileOps - 100;
  for (std::size_t i = 0; i < first; ++i) s.push_back(ComputeOp());
  for (const cpu::MicroOp& op : ops) s.push_back(op);
  ASSERT_EQ(s.size(), first + ops.size());
  ASSERT_GE(s.num_tiles(), 4u);

  auto it = s.begin();
  for (std::size_t i = 0; i < first; ++i) ++it;
  for (std::size_t i = 0; i < ops.size(); ++i, ++it) {
    const std::size_t at = first + i;
    ExpectSameOp(s[at], ops[i], i, "operator[]");
    ExpectSameOp(*it, ops[i], i, "iterator");
    ExpectSameOp(s.tile(at >> cpu::kTileShift).Get(at & cpu::kTileMask),
                 ops[i], i, "tile Get");
  }
  EXPECT_TRUE(it == s.end());
}

TEST(ReplayTiles, RejectsUnencodableOp) {
  // A lane holds 36 address bits and five flag bits; anything wider is a
  // bug in the op's producer and must not be silently truncated.
  cpu::UopStream s;
  cpu::MicroOp far = ComputeOp();
  far.addr = cpu::kTraceAddrLimit;
  EXPECT_DEATH(s.push_back(far), "2\\^36 limit");
  cpu::MicroOp flagged = ComputeOp();
  flagged.flags = 1u << cpu::kNumFlags;
  EXPECT_DEATH(s.push_back(flagged), "undefined flag bits");
  // The widest encodable op still fits.
  far.addr = cpu::kTraceAddrLimit - 1;
  flagged.flags = (1u << cpu::kNumFlags) - 1;
  s.push_back(far);
  s.push_back(flagged);
  EXPECT_EQ(s[0].addr, cpu::kTraceAddrLimit - 1);
  EXPECT_EQ(s[1].flags, (1u << cpu::kNumFlags) - 1);
}

TEST(ReplayTiles, BytesUsedTracksTileAllocation) {
  cpu::UopStream s;
  EXPECT_EQ(s.BytesUsed(), 0u);
  s.push_back(ComputeOp());
  EXPECT_GE(s.BytesUsed(), sizeof(cpu::TraceTile));
  for (std::size_t i = 0; i < cpu::kTileOps; ++i) s.push_back(ComputeOp());
  EXPECT_GE(s.BytesUsed(), 2 * sizeof(cpu::TraceTile));
}

TEST(ReplayTiles, TracePeakBytesSurfacesInResultsAndReport) {
  // The regression test for trace.peak_bytes (allocation-churn fix): the
  // replayed trace's footprint lands in SimResults and prints strictly
  // after the "uncore energy:" golden-diff cutoff — and stays OUT of the
  // JSON, whose field surface the golden files pin.
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 1;
  eo.op_cap = 20'000;
  core::Experiment exp("ldbc", 512, "bfs", eo);
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = 4;
  const core::SimResults r = exp.Run(sc);

  EXPECT_EQ(r.trace_peak_bytes, exp.trace().BytesUsed());
  EXPECT_GT(r.trace_peak_bytes, 0u);

  const std::string report = core::FormatReport(r);
  const std::size_t energy_at = report.find("uncore energy:");
  const std::size_t trace_at = report.find("trace: peak ");
  ASSERT_NE(energy_at, std::string::npos);
  ASSERT_NE(trace_at, std::string::npos);
  EXPECT_LT(energy_at, trace_at);
  EXPECT_EQ(core::ToJson(r).find("trace_peak"), std::string::npos);

  // Hand-built results (no replayed trace) print no footprint line.
  core::SimResults empty;
  EXPECT_EQ(core::FormatReport(empty).find("trace: peak"), std::string::npos);
}

TEST(ReplayConfig, ShardsKnobIsRemoved) {
  // The sharded engine is gone: its knob must not linger in the field
  // table or the machine line (which the sweep-journal fingerprint hashes),
  // and old flags and grid specs that still set it fail loudly, naming the
  // key, instead of being ignored.
  for (const std::string& key : core::SimConfig::ConfigKeys()) {
    EXPECT_NE(key, "sim.shards");
    EXPECT_NE(key, "shards");
  }
  const std::string desc =
      core::SimConfig::Scaled(core::Mode::kGraphPim).Describe();
  EXPECT_EQ(desc.find("shards"), std::string::npos) << desc;

  try {
    exec::ParseGridSpec("workloads=bfs;sim.shards=4");
    ADD_FAILURE() << "grid spec accepted sim.shards";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find("'sim.shards'"), std::string::npos)
        << e.message();
  }
  Config flags;
  flags.Set("shards", "4");
  try {
    flags.RequireKeys(core::SimConfig::ConfigKeys());
    ADD_FAILURE() << "machine-knob keys accepted --shards";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find("'--shards'"), std::string::npos)
        << e.message();
  }
}

}  // namespace
}  // namespace graphpim
