// Tests for the extension features: comparison-block fusion (Section
// III-B), hybrid HMC+DRAM placement, trace serialization, and reports.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "common/random.h"
#include "core/report.h"
#include "core/runner.h"
#include "core/system.h"
#include "graph/generator.h"
#include "workloads/ccomp.h"
#include "workloads/fusion.h"
#include "workloads/kcore.h"
#include "workloads/sssp.h"
#include "workloads/trace_io.h"
#include "mutate.h"

namespace graphpim {
namespace {

using workloads::Trace;

struct Built {
  graph::AddressSpace space;
  graph::CsrGraph g;
  explicit Built(VertexId n = 256)
      : g(graph::GenerateUniform(n, 6.0, 5), space) {}
};

Trace Gen(workloads::Workload& w, Built& b) {
  workloads::TraceBuilder tb(4, &b.space);
  w.Generate(b.g, b.space, tb);
  return tb.Take();
}

std::uint64_t CountOps(const Trace& t, cpu::OpType type) {
  std::uint64_t n = 0;
  for (const auto& s : t.streams) {
    for (const auto& op : s) {
      if (op.type == type) ++n;
    }
  }
  return n;
}

TEST(Fusion, SsspRelaxBlocksFuse) {
  Built b;
  workloads::SsspWorkload sssp(0);
  Trace t = Gen(sssp, b);
  workloads::FusionStats fs;
  Trace fused = workloads::FuseComparisonBlocks(t, b.space, &fs);
  EXPECT_GT(fs.fused_with_cas + fs.fused_compare_only, 0u);
  // Every fused block becomes a CAS-if-less atomic.
  std::uint64_t casless = 0;
  for (const auto& s : fused.streams) {
    for (const auto& op : s) {
      if (op.type == cpu::OpType::kAtomic && op.aop == hmc::AtomicOp::kCasLess16) {
        ++casless;
        EXPECT_TRUE(op.WantReturn());
      }
    }
  }
  EXPECT_EQ(casless, fs.fused_with_cas + fs.fused_compare_only);
  EXPECT_EQ(fused.TotalOps(), t.TotalOps() - fs.ops_removed);
}

TEST(Fusion, KcoreScanLoadsDoNotFuse) {
  // kCore's property scans are plain checks, not comparison blocks; the
  // pass must leave them alone.
  Built b;
  workloads::KcoreWorkload kc(3, 8);
  Trace t = Gen(kc, b);
  workloads::FusionStats fs;
  Trace fused = workloads::FuseComparisonBlocks(t, b.space, &fs);
  EXPECT_EQ(fs.fused_with_cas + fs.fused_compare_only, 0u);
  EXPECT_EQ(fused.TotalOps(), t.TotalOps());
}

TEST(Fusion, BarrierStructurePreserved) {
  Built b;
  workloads::CcompWorkload cc;
  Trace t = Gen(cc, b);
  Trace fused = workloads::FuseComparisonBlocks(t, b.space);
  ASSERT_EQ(fused.streams.size(), t.streams.size());
  for (std::size_t i = 0; i < t.streams.size(); ++i) {
    EXPECT_EQ(CountOps(fused, cpu::OpType::kBarrier),
              CountOps(t, cpu::OpType::kBarrier));
  }
}

TEST(Fusion, SpeedsUpCcompUnderGraphPim) {
  core::Experiment::Options o;
  o.num_threads = 8;
  o.op_cap = 1'500'000;
  core::Experiment exp("ldbc", 8 * 1024, "ccomp", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = 8;
  core::SimResults plain = exp.Run(cfg);
  graph::AddressSpace space;
  Trace fused = workloads::FuseComparisonBlocks(exp.trace(), space);
  core::SimResults f =
      core::RunSimulation(fused, cfg, exp.pmr_base(), exp.pmr_end(),
                          core::RunOptions{});
  EXPECT_LT(f.cycles, plain.cycles);
}

TEST(Hybrid, ZeroFractionMatchesBaselineBehavior) {
  core::Experiment::Options o;
  o.num_threads = 8;
  o.op_cap = 1'000'000;
  core::Experiment exp("ldbc", 4 * 1024, "dc", o);
  core::SimConfig none = core::SimConfig::Scaled(core::Mode::kGraphPim);
  none.num_cores = 8;
  none.pmr_hmc_fraction = 0.0;
  core::SimResults r = exp.Run(none);
  EXPECT_EQ(r.offloaded_atomics, 0u) << "no property page in the HMC";
  EXPECT_GT(r.raw.Get("cache.access.property"), 0.0) << "conventional path";
}

TEST(Hybrid, FractionScalesOffloadCount) {
  core::Experiment::Options o;
  o.num_threads = 8;
  o.op_cap = 1'000'000;
  core::Experiment exp("ldbc", 4 * 1024, "dc", o);
  std::uint64_t prev = 0;
  for (double f : {0.25, 0.5, 1.0}) {
    core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
    cfg.num_cores = 8;
    cfg.pmr_hmc_fraction = f;
    core::SimResults r = exp.Run(cfg);
    EXPECT_GT(r.offloaded_atomics, prev);
    prev = r.offloaded_atomics;
  }
  EXPECT_EQ(prev, exp.Run(core::SimConfig::Scaled(core::Mode::kGraphPim)).atomics);
}

TEST(TraceIo, RoundTrip) {
  Built b;
  workloads::SsspWorkload sssp(0);
  Trace t = Gen(sssp, b);
  std::string path = ::testing::TempDir() + "/graphpim_trace_test.bin";
  workloads::SaveTrace(t, path);
  Trace in;
  workloads::LoadTrace(path, &in);
  ASSERT_EQ(in.streams.size(), t.streams.size());
  for (std::size_t s = 0; s < t.streams.size(); ++s) {
    ASSERT_EQ(in.streams[s].size(), t.streams[s].size());
    for (std::size_t i = 0; i < t.streams[s].size(); ++i) {
      const auto& a = t.streams[s][i];
      const auto& c = in.streams[s][i];
      EXPECT_EQ(a.addr, c.addr);
      EXPECT_EQ(a.type, c.type);
      EXPECT_EQ(a.aop, c.aop);
      EXPECT_EQ(a.flags, c.flags);
      EXPECT_EQ(a.size, c.size);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIo, ReplaySameResult) {
  core::Experiment::Options o;
  o.num_threads = 4;
  o.op_cap = 200'000;
  core::Experiment exp("ldbc", 2 * 1024, "bfs", o);
  std::string path = ::testing::TempDir() + "/graphpim_trace_replay.bin";
  workloads::SaveTrace(exp.trace(), path);
  Trace loaded;
  workloads::LoadTrace(path, &loaded);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = 4;
  core::SimResults a = exp.Run(cfg);
  core::SimResults b2 =
      core::RunSimulation(loaded, cfg, exp.pmr_base(), exp.pmr_end(),
                          core::RunOptions{});
  EXPECT_EQ(a.cycles, b2.cycles);
  std::remove(path.c_str());
}

// Hand-made trace files for the hostile-input cases: the magic, a stream
// count, then one stream of `records` 16-byte records whose header claims
// `length` records.
std::string WriteHandMadeTrace(const std::string& name, std::uint64_t length,
                               const std::vector<std::array<std::uint8_t, 16>>&
                                   records) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  const std::uint64_t streams = 1;
  std::fwrite("GPTRACE1", 1, 8, f);
  std::fwrite(&streams, sizeof(streams), 1, f);
  std::fwrite(&length, sizeof(length), 1, f);
  for (const auto& r : records) std::fwrite(r.data(), 1, r.size(), f);
  std::fclose(f);
  return path;
}

// A record: the little-endian address (0x40 by default), then type,
// component, atomic op, size 8, the flags and compute latency 1.
std::array<std::uint8_t, 16> LoadRecord(std::uint8_t type, std::uint8_t comp,
                                        std::uint8_t aop, std::uint8_t flags = 0,
                                        std::uint64_t addr = 0x40) {
  std::array<std::uint8_t, 16> r = {0, 0, 0, 0, 0, 0, 0, 0,
                                    type, comp, aop, 8, flags, 1, 0, 0};
  for (int b = 0; b < 8; ++b) r[b] = static_cast<std::uint8_t>(addr >> (8 * b));
  return r;
}

// Loading `path` must throw a SimError whose message names the file and
// holds `expect` (the bad field and its byte offset).
void ExpectLoadFails(const std::string& path, const std::string& expect) {
  Trace t;
  try {
    workloads::LoadTrace(path, &t);
    ADD_FAILURE() << path << " should not load";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find(path), std::string::npos) << e.message();
    EXPECT_NE(e.message().find(expect), std::string::npos) << e.message();
  }
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails) {
  ExpectLoadFails("/nonexistent/trace.bin", "cannot open");
}

TEST(TraceIo, RejectsABadComponent) {
  const std::string path = WriteHandMadeTrace(
      "bad_comp.bin", 2, {LoadRecord(2, 0, 1), LoadRecord(2, 200, 1)});
  ExpectLoadFails(path, "bad data component 200 in the record at byte 40");
}

TEST(TraceIo, RejectsABadOpType) {
  ExpectLoadFails(WriteHandMadeTrace("bad_type.bin", 1, {LoadRecord(9, 0, 1)}),
                  "bad op type 9 in the record at byte 24");
}

TEST(TraceIo, RejectsABadAtomicOp) {
  ExpectLoadFails(WriteHandMadeTrace("bad_aop.bin", 1, {LoadRecord(4, 2, 99)}),
                  "bad atomic op 99 in the record at byte 24");
}

// A length of 2^62 records must fail before anything is reserved.
TEST(TraceIo, RejectsAStreamLongerThanTheFile) {
  ExpectLoadFails(WriteHandMadeTrace("huge.bin", std::uint64_t{1} << 62,
                                     {LoadRecord(2, 0, 1)}),
                  "stream length 4611686018427387904 overruns the file (16 "
                  "bytes left) at byte 16");
}

// A trace tile stores five flag bits (cpu/uop_stream.h). A flag byte with
// a higher bit used to load and would now panic when its op is stored.
TEST(TraceIo, RejectsUndefinedFlagBits) {
  ExpectLoadFails(
      WriteHandMadeTrace("bad_flags.bin", 1, {LoadRecord(2, 0, 1, 0x80)}),
      "bad flags 128 (only bits 0-4 are defined) in the record at byte 24");
  ExpectLoadFails(WriteHandMadeTrace("flag5.bin", 2,
                                     {LoadRecord(2, 0, 1), LoadRecord(2, 0, 1, 0x20)}),
                  "bad flags 32 (only bits 0-4 are defined) in the record at "
                  "byte 40");
  const std::string path =
      WriteHandMadeTrace("all_flags.bin", 1, {LoadRecord(2, 0, 1, 0x1f)});
  Trace t;
  workloads::LoadTrace(path, &t);
  ASSERT_EQ(t.TotalOps(), 1u);
  EXPECT_EQ(t.streams[0][0].flags, 0x1f);
  std::remove(path.c_str());
}

// A trace tile stores 36 address bits; 2^40 used to load.
TEST(TraceIo, RejectsAnAddressBeyondTheTraceLimit) {
  ExpectLoadFails(WriteHandMadeTrace("far.bin", 1,
                                     {LoadRecord(2, 2, 1, 0, std::uint64_t{1} << 40)}),
                  "bad address 1099511627776 (the limit is 2^36) in the record "
                  "at byte 24");
  ExpectLoadFails(WriteHandMadeTrace("limit.bin", 1,
                                     {LoadRecord(2, 2, 1, 0, cpu::kTraceAddrLimit)}),
                  "bad address 68719476736");
  const std::string path = WriteHandMadeTrace(
      "last.bin", 1, {LoadRecord(2, 2, 1, 0, cpu::kTraceAddrLimit - 1)});
  Trace t;
  workloads::LoadTrace(path, &t);
  ASSERT_EQ(t.TotalOps(), 1u);
  EXPECT_EQ(t.streams[0][0].addr, cpu::kTraceAddrLimit - 1);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsATruncatedFile) {
  const std::string full = WriteHandMadeTrace(
      "full.bin", 2, {LoadRecord(2, 0, 1), LoadRecord(3, 1, 1)});
  Trace t;
  workloads::LoadTrace(full, &t);  // the untruncated file loads
  ASSERT_EQ(t.TotalOps(), 2u);
  ExpectLoadFails(WriteHandMadeTrace("short.bin", 2, {LoadRecord(2, 0, 1)}),
                  "stream length 2 overruns the file (16 bytes left) at byte "
                  "16");
  // A file cut inside its header.
  const std::string cut = ::testing::TempDir() + "/cut.bin";
  std::FILE* f = std::fopen(cut.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("GPTRACE1\x01\x00", 1, 10, f);
  std::fclose(f);
  ExpectLoadFails(cut, "truncated, no stream count at byte 8");
  std::remove(full.c_str());
}

// A small two-stream trace holding every op kind, flag and data component.
Trace SmallTrace() {
  graph::AddressSpace space;
  const Addr meta = space.meta().Allocate(256);
  const Addr csr = space.structure().Allocate(256);
  const Addr prop = space.PmrMalloc(256);
  workloads::TraceBuilder tb(2, &space);
  for (int t = 0; t < 2; ++t) {
    tb.Compute(t, 3, false, t == 1);
    tb.Load(t, csr + 8 * t, 4, true, true);
    tb.Branch(t);
    tb.Atomic(t, prop + 16 * t, hmc::AtomicOp::kCasLess16, 16, true, true);
    tb.Store(t, meta + 64 * t, 8);
    tb.Flush(t, prop);
    tb.Fence(t);
  }
  tb.Barrier();
  return tb.Take();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

// Every op of `a` equals the op at the same place in `b`, field by field.
bool SameOps(const Trace& a, const Trace& b) {
  if (a.streams.size() != b.streams.size()) return false;
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    if (a.streams[s].size() != b.streams[s].size()) return false;
    for (std::size_t i = 0; i < a.streams[s].size(); ++i) {
      const cpu::MicroOp x = a.streams[s][i];
      const cpu::MicroOp y = b.streams[s][i];
      if (x.addr != y.addr || x.type != y.type || x.comp != y.comp ||
          x.aop != y.aop || x.size != y.size || x.flags != y.flags ||
          x.compute_lat != y.compute_lat) {
        return false;
      }
    }
  }
  return true;
}

// SplitMix64 byte mutants of a SaveTrace file (tests/mutate.h): each must
// load or throw SimError, never crash, and one that loads must survive a
// save and reload unchanged. Before LoadTrace checked the flags and the
// address, mutants with a high flag or address bit panicked in the tile.
TEST(TraceIo, MutantsLoadOrThrowSimError) {
  const std::string seed_path = ::testing::TempDir() + "/gp_trace_fuzz_seed.bin";
  const std::string mutant = ::testing::TempDir() + "/gp_trace_fuzz_mutant.bin";
  const std::string resaved = ::testing::TempDir() + "/gp_trace_fuzz_resaved.bin";
  workloads::SaveTrace(SmallTrace(), seed_path);
  const std::string seed = ReadBytes(seed_path);
  ASSERT_EQ(seed.size(), 8u + 8u + 2 * (8u + 8 * 16u));

  // Field boundaries: small counts, enum edges, flag bits, high bytes.
  using namespace std::string_view_literals;
  constexpr std::string_view kTraceBytes =
      "\x00\x01\x02\x03\x04\x07\x08\x10\x14\x15\x1f\x20\x80\xff"sv;
  constexpr std::size_t kMutants = 20'000;
  SplitMix64 rng(0x7472616365);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    WriteBytes(mutant, Mutate(seed, rng, kTraceBytes));
    Trace t;
    try {
      workloads::LoadTrace(mutant, &t);
    } catch (const SimError&) {
      ++rejected;
      continue;
    }
    ++loaded;
    workloads::SaveTrace(t, resaved);
    Trace again;
    workloads::LoadTrace(resaved, &again);
    ASSERT_TRUE(SameOps(t, again)) << "mutant " << i;
  }
  // Both outcomes occur, or the mutator is not exercising the format.
  EXPECT_GT(loaded, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 2);
  std::remove(seed_path.c_str());
  std::remove(mutant.c_str());
  std::remove(resaved.c_str());
}

TEST(Report, FormatContainsHeadlines) {
  core::Experiment::Options o;
  o.num_threads = 4;
  o.op_cap = 100'000;
  core::Experiment exp("ldbc", 1024, "bfs", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = 4;
  core::SimResults r = exp.Run(cfg);
  std::string report = core::FormatReport(r);
  EXPECT_NE(report.find("GraphPIM"), std::string::npos);
  EXPECT_NE(report.find("cycles:"), std::string::npos);
  EXPECT_NE(report.find("uncore energy"), std::string::npos);
}

TEST(Report, JsonWritesAndParsesRoughly) {
  core::Experiment::Options o;
  o.num_threads = 4;
  o.op_cap = 100'000;
  core::Experiment exp("ldbc", 1024, "bfs", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kBaseline);
  cfg.num_cores = 4;
  core::SimResults r = exp.Run(cfg);
  std::string json = core::ToJson(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  std::string path = ::testing::TempDir() + "/graphpim_report.json";
  core::WriteJson(r, path);
  std::remove(path.c_str());
}

TEST(BusLock, GlobalSerializationOrdersAtomics) {
  // Two UC-NoPIM atomics from different cores must serialize globally.
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kUncacheNoPim);
  core::MemorySystem sys(cfg, 0x4'0000'0000ULL, 0x5'0000'0000ULL);
  cpu::MicroOp op;
  op.type = cpu::OpType::kAtomic;
  op.addr = 0x4'0000'0100ULL;
  op.size = 8;
  auto a = sys.Access(0, op, 0);
  op.addr = 0x4'0000'9000ULL;  // different address, different bank
  auto b = sys.Access(1, op, 0);
  EXPECT_GE(b.complete, a.complete) << "bus lock holds the whole interconnect";
}

}  // namespace
}  // namespace graphpim
