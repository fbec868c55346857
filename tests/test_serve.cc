// src/serve tests: value-derived traffic schedules (deterministic, qps
// acting only on arrival spacing), per-tenant carve isolation, admission
// queue drop accounting, and the headline determinism regressions — a
// serve grid must be bit-identical at --jobs=1 vs --jobs=4 and across
// reruns at a fixed seed.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "common/random.h"
#include "core/sim_config.h"
#include "serve/engine.h"
#include "serve/query.h"
#include "serve/slo.h"
#include "serve/traffic.h"
#include "workloads/trace.h"
#include "mutate.h"

namespace graphpim::serve {
namespace {

TrafficSpec TinyTraffic(double qps = 2e6) {
  TrafficSpec ts;
  ts.qps = qps;
  ts.num_requests = 40;
  ts.num_tenants = 2;
  ts.num_vertices = 2048;
  ts.seed = 7;
  return ts;
}

ServedGraph::Options TinyGraph() {
  ServedGraph::Options go;
  go.profile = "ldbc";
  go.num_vertices = 2048;
  go.num_tenants = 2;
  go.seed = 7;
  return go;
}

ServeParams TinyParams(core::Mode mode = core::Mode::kGraphPim) {
  ServeParams p;
  p.cfg = core::SimConfig::Scaled(mode);
  p.traffic = TinyTraffic();
  p.query.max_hops = 2;
  p.query.max_frontier = 16;
  p.query.op_budget = 600;
  p.queue_depth = 8;
  p.slots = 2;
  p.batch_max = 4;
  return p;
}

// Stable textual fingerprint of a point: every deterministic field plus
// the full registry. Two runs are "identical" iff these strings match.
std::string Fingerprint(const ServePoint& p) {
  std::string s = p.config_name + "|" + std::to_string(p.qps) + "|" +
                  std::to_string(p.offered) + "|" + std::to_string(p.served) +
                  "|" + std::to_string(p.dropped) + "|" +
                  std::to_string(p.p50_ns) + "|" + std::to_string(p.p95_ns) +
                  "|" + std::to_string(p.p99_ns) + "|" +
                  std::to_string(p.queue_peak) + "|" +
                  std::to_string(p.horizon_ns);
  for (const auto& [k, v] : p.raw.AllItems()) {
    s += "\n" + k + "=" + std::to_string(v);
  }
  return s;
}

TEST(ServeTraffic, ScheduleIsDeterministicAtFixedSeed) {
  const TrafficSpec ts = TinyTraffic();
  const auto a = GenerateSchedule(ts);
  const auto b = GenerateSchedule(ts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].root, b[i].root);
  }
  // Arrivals are a cumulative sum of positive interarrivals.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].arrival, a[i - 1].arrival);
  }
}

TEST(ServeTraffic, QpsChangesSpacingButNotRequestIdentity) {
  TrafficSpec slow = TinyTraffic(1e5);
  TrafficSpec fast = TinyTraffic(4e6);
  const auto a = GenerateSchedule(slow);
  const auto b = GenerateSchedule(fast);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].root, b[i].root) << i;
  }
  // 40x the rate compresses the horizon accordingly.
  EXPECT_GT(a.back().arrival, b.back().arrival);
}

TEST(ServeTraffic, BurstyLongRunRateStaysNearNominal) {
  TrafficSpec ts = TinyTraffic(1e6);
  ts.model = ArrivalModel::kBursty;
  ts.num_requests = 4000;
  const auto sched = GenerateSchedule(ts);
  const double horizon_s =
      static_cast<double>(sched.back().arrival) / 1e12;  // ticks = ps
  const double rate = static_cast<double>(sched.size()) / horizon_s;
  // Normalized MMPP: mean interarrival is solved to exactly 1/qps, so the
  // long-run rate sits near nominal (deterministic draw stream; the band
  // only covers finite-sample wobble over 4000 arrivals).
  EXPECT_GT(rate, ts.qps * 0.75);
  EXPECT_LT(rate, ts.qps * 1.25);
}

TEST(ServeTraffic, RejectsDegenerateSpecs) {
  TrafficSpec ts = TinyTraffic();
  ts.num_vertices = 0;
  EXPECT_THROW(GenerateSchedule(ts), SimError);
  ts = TinyTraffic();
  ts.qps = 0.0;
  EXPECT_THROW(GenerateSchedule(ts), SimError);
  ts = TinyTraffic();
  ts.burst_mult = 0.5;
  EXPECT_THROW(GenerateSchedule(ts), SimError);
  EXPECT_THROW(ParseArrivalModel("uniform"), SimError);
}

// SplitMix64 mutants of a mix spec (tests/mutate.h) must each parse or
// throw SimError; a mix that parses has finite weights, and the schedule
// built from it either names an unknown kind in a SimError or draws only
// the mix's kinds.
TEST(ServeTraffic, MixSpecMutantsParseOrThrowSimError) {
  const std::string seed = "bfs=0.5,sssp=0.3,prank=0.2,knn=1e-1";
  ASSERT_NO_THROW(ParseMixSpec(seed));
  constexpr std::string_view kMixBytes = "=,.-+eEx0123456789 \t";
  constexpr std::size_t kMutants = 20'000;
  SplitMix64 rng(0x6d6978);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string m = Mutate(seed, rng, kMixBytes);
    std::vector<MixEntry> mix;
    try {
      mix = ParseMixSpec(m);
      ++parsed;
    } catch (const SimError&) {
      ++rejected;
      continue;
    }
    for (const MixEntry& me : mix) {
      EXPECT_FALSE(me.first.empty()) << m;
      EXPECT_TRUE(std::isfinite(me.second)) << m;
    }
    TrafficSpec ts = TinyTraffic();
    ts.num_requests = 8;
    ts.mix = mix;
    try {
      for (const ServeRequest& r : GenerateSchedule(ts)) {
        EXPECT_LT(r.kind, QueryEmitters().size()) << m;
      }
    } catch (const SimError&) {
    }
  }
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 20);
}

TEST(ServeQuery, CarvesArePageAlignedAndDisjoint) {
  ServedGraph sg(TinyGraph());
  ASSERT_EQ(sg.num_tenants(), 2u);
  const std::uint64_t page = graph::AddressSpace::kPmrPageBytes;
  for (std::uint32_t t = 0; t < sg.num_tenants(); ++t) {
    const TenantCarve& c = sg.carve(t);
    EXPECT_EQ(c.prop_base % page, 0u);
    EXPECT_EQ(c.aux_base % page, 0u);
    EXPECT_EQ(c.bytes() % page, 0u);
    EXPECT_GE(c.prop_base, sg.pmr_base());
    EXPECT_LE(c.end, sg.pmr_end());
  }
  // Disjoint: no address owned by two tenants.
  const TenantCarve& a = sg.carve(0);
  const TenantCarve& b = sg.carve(1);
  EXPECT_TRUE(a.end <= b.prop_base || b.end <= a.prop_base);
  EXPECT_EQ(sg.OwnerOf(a.prop_base), 0);
  EXPECT_EQ(sg.OwnerOf(b.prop_base), 1);
  EXPECT_EQ(sg.OwnerOf(sg.pmr_end() - 1), -1);
}

TEST(ServeQuery, TenantPropertyTrafficNeverLeavesItsCarve) {
  ServedGraph sg(TinyGraph());
  QueryParams qp;
  qp.max_hops = 3;
  qp.max_frontier = 32;
  qp.op_budget = 2000;
  for (std::uint32_t tenant = 0; tenant < sg.num_tenants(); ++tenant) {
    for (const std::string name : {"bfs", "sssp", "prank"}) {
      const int kind = FindQueryKind(name);
      ASSERT_GE(kind, 0) << name;
      workloads::TraceBuilder tb(1, &sg.space());
      ServeRequest req;
      req.tenant = tenant;
      req.kind = static_cast<QueryKindId>(kind);
      req.root = 17;
      const QueryFootprint fp = EmitQuery(sg, req, qp, tb, 0);
      EXPECT_GT(fp.ops, 0u) << name;
      const workloads::Trace tr = tb.Take();
      std::uint64_t pmr_ops = 0;
      for (const cpu::MicroOp& op : tr.streams[0]) {
        if (op.addr < sg.pmr_base() || op.addr >= sg.pmr_end()) continue;
        ++pmr_ops;
        // THE isolation property: every property access of tenant K's
        // query resolves to tenant K's carve.
        EXPECT_EQ(sg.OwnerOf(op.addr), static_cast<int>(tenant))
            << name << " op at 0x" << std::hex << op.addr;
      }
      EXPECT_GT(pmr_ops, 0u) << name;
    }
  }
}

TEST(ServeEngine, EveryRequestIsServedOrDropped) {
  ServedGraph sg(TinyGraph());
  for (DropPolicy drop : {DropPolicy::kTail, DropPolicy::kHead}) {
    ServeParams p = TinyParams();
    p.drop = drop;
    p.queue_depth = 2;          // tiny queue
    p.traffic.qps = 5e7;        // far beyond capacity: forces drops
    const ServePoint pt = RunServePoint(sg, p);
    EXPECT_EQ(pt.offered, p.traffic.num_requests);
    EXPECT_EQ(pt.offered, pt.served + pt.dropped);
    EXPECT_GT(pt.dropped, 0u) << ToString(drop);
    EXPECT_LE(pt.queue_peak, p.queue_depth);
    // Tenant slices partition the totals.
    std::uint64_t off = 0, srv = 0, drp = 0;
    for (const TenantSlo& t : pt.tenants) {
      off += t.offered;
      srv += t.served;
      drp += t.dropped;
    }
    EXPECT_EQ(off, pt.offered);
    EXPECT_EQ(srv, pt.served);
    EXPECT_EQ(drp, pt.dropped);
    // Folded registry mirrors the struct.
    EXPECT_EQ(pt.raw.Get("serve.offered"), static_cast<double>(pt.offered));
    EXPECT_EQ(pt.raw.Get("serve.dropped"), static_cast<double>(pt.dropped));
    EXPECT_EQ(pt.raw.Get("serve.latency.p99_ns"), pt.p99_ns);
  }
}

TEST(ServeEngine, UncontendedLoadServesEverything) {
  ServedGraph sg(TinyGraph());
  ServeParams p = TinyParams();
  p.traffic.qps = 1e4;  // glacial arrivals: queue never builds
  const ServePoint pt = RunServePoint(sg, p);
  EXPECT_EQ(pt.served, pt.offered);
  EXPECT_EQ(pt.dropped, 0u);
  EXPECT_EQ(pt.queue_peak, 0u);
  EXPECT_GT(pt.p50_ns, 0.0);
  EXPECT_LE(pt.p50_ns, pt.p95_ns);
  EXPECT_LE(pt.p95_ns, pt.p99_ns);
  EXPECT_LE(pt.p99_ns, pt.max_ns);
}

TEST(ServeEngine, JobCountDoesNotChangeResults) {
  ServedGraph sg(TinyGraph());
  const ServeParams base = TinyParams();
  const std::vector<std::pair<std::string, core::SimConfig>> configs = {
      {"Baseline", core::SimConfig::Scaled(core::Mode::kBaseline)},
      {"GraphPIM", core::SimConfig::Scaled(core::Mode::kGraphPim)}};
  const std::vector<double> qps = {2e5, 2e6};
  const ServeGridResult one = RunServeGrid(sg, base, configs, qps, 1);
  const ServeGridResult four = RunServeGrid(sg, base, configs, qps, 4);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(Fingerprint(one.points[i]), Fingerprint(four.points[i])) << i;
  }
  EXPECT_EQ(FormatSaturationTable(one.points),
            FormatSaturationTable(four.points));
}

TEST(ServeEngine, RerunAtFixedSeedIsByteIdentical) {
  ServedGraph sg(TinyGraph());
  const ServeParams base = TinyParams();
  const std::vector<std::pair<std::string, core::SimConfig>> configs = {
      {"GraphPIM", core::SimConfig::Scaled(core::Mode::kGraphPim)}};
  const std::vector<double> qps = {1e6};
  const ServeGridResult a = RunServeGrid(sg, base, configs, qps, 2);
  const ServeGridResult b = RunServeGrid(sg, base, configs, qps, 2);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(Fingerprint(a.points[i]), Fingerprint(b.points[i]));
  }
  EXPECT_EQ(FormatSaturationTable(a.points) + FormatKneeSummary(a.points),
            FormatSaturationTable(b.points) + FormatKneeSummary(b.points));
}

TEST(ServeEngine, FlagReachableParamErrorsThrowSimError) {
  ServedGraph sg(TinyGraph());
  // All of these arrive straight from CLI flags, so they must surface as
  // catchable SimErrors (one-line tool error), never a GP_CHECK abort.
  ServeParams p = TinyParams();
  p.slots = 0;
  EXPECT_THROW(RunServePoint(sg, p), SimError);
  EXPECT_THROW(RunServeGrid(sg, p, {{"X", p.cfg}}, {1e6}, 1, nullptr),
               SimError);
  p = TinyParams();
  p.batch_max = static_cast<std::size_t>(p.cfg.num_cores) + 1;
  EXPECT_THROW(RunServePoint(sg, p), SimError);
  EXPECT_THROW(RunServeGrid(sg, p, {{"X", p.cfg}}, {1e6}, 1, nullptr),
               SimError);
  p = TinyParams();
  p.queue_depth = 0;
  EXPECT_THROW(RunServePoint(sg, p), SimError);
  EXPECT_THROW(RunServeGrid(sg, p, {{"X", p.cfg}}, {1e6}, 1, nullptr),
               SimError);
  ServedGraph::Options bad = TinyGraph();
  bad.num_tenants = 0;
  EXPECT_THROW(ServedGraph{bad}, SimError);
}

// Serve times that would pass the serve clock's range (and with it the
// 64-bit tick clock) are SimErrors naming the parameter, not wrapped
// latencies: a huge dispatch cost, batches whose completions add up past
// the range, and an offered load so low that an arrival lies past it.
TEST(ServeEngine, ServeTimesPastTheClockThrowSimError) {
  ServedGraph sg(TinyGraph());
  ServeParams p = TinyParams();
  p.dispatch_ns = 1e30;
  EXPECT_THROW(RunServePoint(sg, p), SimError);
  EXPECT_THROW(RunServeGrid(sg, p, {{"X", p.cfg}}, {1e6}, 1, nullptr),
               SimError);
  p.dispatch_ns = kServeClockLimitNs * 0.6;
  EXPECT_THROW(RunServePoint(sg, p), SimError);
  p = TinyParams();
  p.traffic.qps = 1e-8;
  EXPECT_THROW(RunServePoint(sg, p), SimError);
  // A grid checks every load before any point runs.
  int ran = 0;
  EXPECT_THROW(RunServeGrid(sg, p, {{"X", p.cfg}}, {1e6, 1e-8}, 1,
                            [&ran](const exec::SweepProgress&) { ++ran; }),
               SimError);
  EXPECT_EQ(ran, 0);
}

// hmc.cubes and hmc.capacity_gib describe the machine: a multi-cube point
// reports them once, however many batches it replays, and a single-cube
// point carries neither.
TEST(ServeEngine, MultiCubePointReportsTheNetworkSizeOnce) {
  ServedGraph sg(TinyGraph());
  ServeParams p = TinyParams();
  p.cfg.hmc.num_cubes = 4;
  const ServePoint four = RunServePoint(sg, p);
  ASSERT_GT(four.batches, 1u);
  EXPECT_EQ(four.raw.Get("hmc.cubes"), 4.0);
  EXPECT_EQ(four.raw.Get("hmc.capacity_gib"), 32.0);
  EXPECT_GT(four.raw.Get("hmc.remote_ops"), 0.0);
  const ServePoint one = RunServePoint(sg, TinyParams());
  EXPECT_FALSE(one.raw.Has("hmc.cubes"));
  EXPECT_FALSE(one.raw.Has("hmc.capacity_gib"));
}

TEST(ServeRegistry, RegistrationOrderAndLookup) {
  // The registry order IS the QueryKindId assignment — append-only, and
  // the first three entries must keep their historical ids for schedule
  // bit-identity.
  const std::vector<QueryEmitter>& ems = QueryEmitters();
  ASSERT_EQ(ems.size(), 4u);
  EXPECT_STREQ(ems[0].name, "bfs");
  EXPECT_STREQ(ems[1].name, "sssp");
  EXPECT_STREQ(ems[2].name, "prank");
  EXPECT_STREQ(ems[3].name, "knn");
  for (std::size_t i = 0; i < ems.size(); ++i) {
    EXPECT_EQ(FindQueryKind(ems[i].name), static_cast<int>(i));
    EXPECT_STREQ(QueryKindName(static_cast<QueryKindId>(i)), ems[i].name);
    ASSERT_NE(ems[i].emit, nullptr);
    ASSERT_NE(ems[i].sample_root, nullptr);
  }
  EXPECT_EQ(FindQueryKind("dfs"), -1);
  EXPECT_STREQ(QueryKindName(static_cast<QueryKindId>(ems.size())), "?");
}

TEST(ServeRegistry, UnknownMixKindThrowsNamingTheOffender) {
  TrafficSpec ts = TinyTraffic();
  ts.mix = {{"bfs", 0.5}, {"zap", 0.5}};
  try {
    GenerateSchedule(ts);
    FAIL() << "expected SimError for unknown kind";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("zap"), std::string::npos)
        << e.what();
  }
  ts.mix = {{"bfs", -0.5}};
  EXPECT_THROW(GenerateSchedule(ts), SimError);
  ts.mix.clear();
  EXPECT_THROW(GenerateSchedule(ts), SimError);
}

TEST(ServeRegistry, UnregisteredKindIdThrows) {
  ServedGraph sg(TinyGraph());
  workloads::TraceBuilder tb(1, &sg.space());
  ServeRequest req;
  req.kind = static_cast<QueryKindId>(QueryEmitters().size());
  EXPECT_THROW(EmitQuery(sg, req, QueryParams{}, tb, 0), SimError);
}

TEST(ServeRegistry, MixSelectsKindsByWeight) {
  // All-zero mix degenerates to the first entry's kind only.
  TrafficSpec ts = TinyTraffic();
  ts.mix = {{"sssp", 0.0}, {"prank", 0.0}};
  for (const ServeRequest& r : GenerateSchedule(ts)) {
    EXPECT_EQ(r.kind, static_cast<QueryKindId>(FindQueryKind("sssp")));
  }
  // A single-kind mix serves only that kind.
  ts.mix = {{"knn", 1.0}};
  for (const ServeRequest& r : GenerateSchedule(ts)) {
    EXPECT_EQ(r.kind, static_cast<QueryKindId>(FindQueryKind("knn")));
  }
}

TEST(ServeRegistry, ParseMixSpecFormats) {
  const std::vector<MixEntry> a = ParseMixSpec("bfs=0.5,sssp=0.3,prank=0.2");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].first, "bfs");
  EXPECT_DOUBLE_EQ(a[0].second, 0.5);
  EXPECT_EQ(a[2].first, "prank");
  EXPECT_DOUBLE_EQ(a[2].second, 0.2);
  const std::vector<MixEntry> b = ParseMixSpec("knn");  // bare name
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].first, "knn");
  EXPECT_DOUBLE_EQ(b[0].second, 1.0);
  EXPECT_THROW(ParseMixSpec("knn=abc"), SimError);
  EXPECT_THROW(ParseMixSpec("knn=0.5x"), SimError);  // trailing garbage
  EXPECT_THROW(ParseMixSpec("knn=nan"), SimError);
  EXPECT_THROW(ParseMixSpec("knn=inf"), SimError);
  EXPECT_THROW(ParseMixSpec("knn="), SimError);
  EXPECT_THROW(ParseMixSpec("=1"), SimError);
  EXPECT_THROW(ParseMixSpec(""), SimError);
}

ServedGraph::Options TinyAnnGraph() {
  ServedGraph::Options go = TinyGraph();
  go.num_vertices = 1024;  // keeps the HNSW build cheap
  go.enable_ann = true;
  return go;
}

TEST(ServeKnn, AnnIndexDoesNotMoveTheCarves) {
  // Strict layout passthrough: enabling ann must not shift any tenant
  // carve or queue address — the index blocks land after them.
  ServedGraph::Options off = TinyAnnGraph();
  off.enable_ann = false;
  ServedGraph plain(off);
  ServedGraph ann(TinyAnnGraph());
  ASSERT_TRUE(ann.has_ann());
  ASSERT_FALSE(plain.has_ann());
  for (std::uint32_t t = 0; t < plain.num_tenants(); ++t) {
    EXPECT_EQ(plain.carve(t).prop_base, ann.carve(t).prop_base);
    EXPECT_EQ(plain.carve(t).aux_base, ann.carve(t).aux_base);
    EXPECT_EQ(plain.carve(t).end, ann.carve(t).end);
    EXPECT_EQ(plain.QueueAddr(t, 0), ann.QueueAddr(t, 0));
  }
  // The shared index is carve-free territory: no tenant owns it.
  EXPECT_GE(ann.ann_index().level0_base(), ann.carve(1).end);
  EXPECT_EQ(ann.OwnerOf(ann.ann_index().level0_base()), -1);
}

TEST(ServeKnn, KnnTrafficSplitsBetweenCarveAndSharedIndex) {
  ServedGraph sg(TinyAnnGraph());
  QueryParams qp;
  qp.op_budget = 4000;
  workloads::TraceBuilder tb(1, &sg.space());
  ServeRequest req;
  req.tenant = 1;
  req.kind = static_cast<QueryKindId>(FindQueryKind("knn"));
  req.root = 33;
  const QueryFootprint fp = EmitQuery(sg, req, qp, tb, 0);
  EXPECT_GT(fp.ops, 0u);
  EXPECT_GT(fp.edges, 0u);
  EXPECT_GT(fp.vertices, 0u);
  const workloads::Trace tr = tb.Take();
  const graph::HnswIndex& ix = sg.ann_index();
  std::uint64_t carve_ops = 0, index_ops = 0, atomics = 0;
  for (const cpu::MicroOp& op : tr.streams[0]) {
    if (op.addr >= sg.pmr_base() && op.addr < sg.pmr_end()) {
      const bool in_index = (op.addr >= ix.level0_base() &&
                             op.addr < ix.level0_end()) ||
                            (op.addr >= ix.upper_base() &&
                             op.addr < ix.upper_end());
      if (in_index) {
        ++index_ops;
      } else {
        // Property traffic stays in the requesting tenant's carve.
        EXPECT_EQ(sg.OwnerOf(op.addr), 1) << "op at 0x" << std::hex << op.addr;
        ++carve_ops;
      }
    }
    if (op.type == cpu::OpType::kAtomic) ++atomics;
  }
  EXPECT_GT(carve_ops, 0u);   // visited claims, beam locks, bound swaps
  EXPECT_GT(index_ops, 0u);   // level-0 neighbor-list walks
  EXPECT_GT(atomics, 0u);
}

TEST(ServeKnn, KnnWithoutIndexThrows) {
  ServedGraph sg(TinyGraph());  // no ann
  ServeParams p = TinyParams();
  p.traffic.mix = {{"knn", 1.0}};
  EXPECT_THROW(RunServePoint(sg, p), SimError);
  EXPECT_THROW(RunServeGrid(sg, p, {{"X", p.cfg}}, {1e6}, 1, nullptr),
               SimError);
  // Weight zero is fine: the kind never fires.
  p.traffic.mix = {{"bfs", 1.0}, {"knn", 0.0}};
  const ServePoint pt = RunServePoint(sg, p);
  EXPECT_EQ(pt.served + pt.dropped, pt.offered);
}

TEST(ServeKnn, KnnGridIsJobsInvariant) {
  ServedGraph sg(TinyAnnGraph());
  ServeParams base = TinyParams();
  base.traffic.num_vertices = 1024;
  base.traffic.mix = {{"knn", 1.0}};
  const std::vector<std::pair<std::string, core::SimConfig>> configs = {
      {"Baseline", core::SimConfig::Scaled(core::Mode::kBaseline)},
      {"GraphPIM", core::SimConfig::Scaled(core::Mode::kGraphPim)}};
  const std::vector<double> qps = {2e5, 2e6};
  const ServeGridResult one = RunServeGrid(sg, base, configs, qps, 1);
  const ServeGridResult four = RunServeGrid(sg, base, configs, qps, 4);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(Fingerprint(one.points[i]), Fingerprint(four.points[i])) << i;
    EXPECT_GT(one.points[i].served, 0u);
  }
  EXPECT_EQ(FormatSaturationTable(one.points),
            FormatSaturationTable(four.points));
  // The knn point queries genuinely hit the PIM path under GraphPIM.
  EXPECT_GT(one.points.back().raw.Get("pou.offloaded_atomics"), 0.0);
}

TEST(ServeSlo, QuantileSortedInterpolates) {
  EXPECT_EQ(QuantileSorted({}, 0.5), 0.0);
  EXPECT_EQ(QuantileSorted({42.0}, 0.0), 42.0);
  EXPECT_EQ(QuantileSorted({42.0}, 1.0), 42.0);
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.5), 25.0);   // midpoint of 20, 30
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.0 / 3.0), 20.0);
}

TEST(ServeSlo, KneeFindsLastKeepUpPoint) {
  auto mk = [](double qps, double p99_ns, double drop, std::uint64_t peak) {
    ServePoint p;
    p.config_name = "X";
    p.qps = qps;
    p.p99_ns = p99_ns;
    p.drop_rate = drop;
    p.queue_peak = peak;
    p.queue_limit = 8;
    return p;
  };
  // Light-load p99 is 10us; the default latency budget is 4x that. The
  // 2e5 point stays inside it; 4e5 blows the budget and drops.
  const std::vector<ServePoint> series = {mk(1e5, 10e3, 0.0, 1),
                                          mk(2e5, 25e3, 0.0, 3),
                                          mk(4e5, 90e3, 0.3, 8)};
  const KneeSummary k = FindKnee(series);
  EXPECT_EQ(k.config_name, "X");
  EXPECT_DOUBLE_EQ(k.knee_qps, 2e5);
  EXPECT_TRUE(k.saturated);
  // A full admission queue alone marks a point saturated, even without
  // drops or a latency blowout.
  const KneeSummary full =
      FindKnee({mk(1e5, 10e3, 0.0, 1), mk(2e5, 12e3, 0.0, 8)});
  EXPECT_DOUBLE_EQ(full.knee_qps, 1e5);
  EXPECT_TRUE(full.saturated);
  // A series that never saturates reports the top of the grid, unflagged.
  const KneeSummary open =
      FindKnee({mk(1e5, 10e3, 0.0, 1), mk(2e5, 12e3, 0.0, 2)});
  EXPECT_DOUBLE_EQ(open.knee_qps, 2e5);
  EXPECT_FALSE(open.saturated);
}

TEST(ServeSlo, ServePhasesCarryPerPointDeltas) {
  ServedGraph sg(TinyGraph());
  ServeParams p = TinyParams();
  p.traffic.qps = 1e6;
  ServePoint a = RunServePoint(sg, p);
  a.config_name = "GraphPIM";
  p.traffic.qps = 2e6;
  ServePoint b = RunServePoint(sg, p);
  b.config_name = "GraphPIM";
  const trace::IntervalLog log = BuildServePhases({a, b});
  ASSERT_EQ(log.intervals().size(), 2u);
  EXPECT_EQ(log.intervals()[0].name, "GraphPIM@qps=1000000");
  EXPECT_EQ(log.intervals()[1].name, "GraphPIM@qps=2000000");
  // Each phase's serve.offered delta is that point's own offered count.
  for (const auto& [k, v] : log.intervals()[0].deltas) {
    if (k == "serve.offered") {
      EXPECT_EQ(v, static_cast<double>(a.offered));
    }
  }
}

}  // namespace
}  // namespace graphpim::serve
