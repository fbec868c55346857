// google-benchmark microbenchmarks of the simulation substrates: cache
// lookups, HMC accesses, bandwidth and slot reservations, graph generation,
// CSR construction, and end-to-end trace replay throughput.
#include <benchmark/benchmark.h>

#include "common/slot_pool.h"
#include "core/runner.h"
#include "graph/generator.h"
#include "hmc/cube.h"
#include "hmc/throttle.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"

namespace {

using namespace graphpim;

void BM_CacheLookup(benchmark::State& state) {
  mem::CacheArray cache(static_cast<std::uint64_t>(state.range(0)) * kKiB, 8, 64);
  Rng rng(1);
  for (Addr a = 0; a < cache.size_bytes(); a += 64) cache.Insert(a, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(rng.NextBounded(cache.size_bytes())));
  }
}
BENCHMARK(BM_CacheLookup)->Arg(32)->Arg(256)->Arg(16384);

void BM_HierarchyAccess(benchmark::State& state) {
  hmc::HmcParams hp;
  hmc::HmcNetwork net(hp, nullptr, 0, 0);
  mem::CacheParams cp;
  mem::CacheHierarchy hier(16, cp, &net);
  Rng rng(2);
  Tick t = 0;
  for (auto _ : state) {
    t += 500;
    benchmark::DoNotOptimize(hier.Access(static_cast<int>(rng.NextBounded(16)),
                                         mem::AccessType::kRead,
                                         rng.NextBounded(1 << 26), t));
  }
}
BENCHMARK(BM_HierarchyAccess);

void BM_HmcRead(benchmark::State& state) {
  hmc::HmcParams hp;
  hmc::HmcCube cube(hp);
  Rng rng(3);
  Tick t = 0;
  for (auto _ : state) {
    t += 100;
    benchmark::DoNotOptimize(cube.Read(rng.NextBounded(1 << 28), 64, t));
  }
}
BENCHMARK(BM_HmcRead);

void BM_HmcAtomic(benchmark::State& state) {
  hmc::HmcParams hp;
  hmc::HmcCube cube(hp);
  Rng rng(4);
  Tick t = 0;
  for (auto _ : state) {
    t += 100;
    benchmark::DoNotOptimize(cube.Atomic(rng.NextBounded(1 << 28),
                                         hmc::AtomicOp::kDualAdd8, hmc::Value16{},
                                         false, t));
  }
}
BENCHMARK(BM_HmcAtomic);

// BM_HmcRead and BM_HmcAtomic only move time forward. The cores of a
// replay reach a link or a vault controller out of order, so here the
// timestamps jitter by up to three epochs around a rising clock: each
// reservation may land before the last one, and the window slides.
void BM_ThrottleReserve(benchmark::State& state) {
  hmc::HmcParams hp;
  constexpr Tick kEpoch = 25 * kTicksPerNs;
  hmc::EpochThrottle lane(kEpoch, hp.FlitTime());
  Rng rng(5);
  Tick clock = 3 * kEpoch;
  for (auto _ : state) {
    clock += 500;
    const Tick when = clock - 3 * kEpoch + rng.NextBounded(6 * kEpoch);
    const auto flits = static_cast<std::uint32_t>(1 + rng.NextBounded(5));
    benchmark::DoNotOptimize(lane.Reserve(flits, when));
  }
}
BENCHMARK(BM_ThrottleReserve);

// One MSHR or UC-slot booking on a core's 16 slots: requests a few ns
// apart, each holding its slot for 20-60 ns, so the pool stays busy.
void BM_SlotPool(benchmark::State& state) {
  SlotPool slots(16);
  Rng rng(6);
  Tick clock = 0;
  for (auto _ : state) {
    clock += 2 * kTicksPerNs;
    const Tick issue = slots.Acquire(clock + rng.NextBounded(2 * kTicksPerNs));
    slots.Release(issue + NsToTicks(20.0) + rng.NextBounded(40 * kTicksPerNs));
    benchmark::DoNotOptimize(issue);
  }
}
BENCHMARK(BM_SlotPool);

void BM_RmatGenerate(benchmark::State& state) {
  graph::RmatParams p;
  p.num_vertices = static_cast<VertexId>(state.range(0));
  p.avg_degree = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GenerateRmat(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.num_vertices * 16));
}
BENCHMARK(BM_RmatGenerate)->Arg(1024)->Arg(16 * 1024);

void BM_CsrBuild(benchmark::State& state) {
  graph::EdgeList el = graph::GenerateUniform(16 * 1024, 16, 5);
  for (auto _ : state) {
    graph::AddressSpace space;
    graph::CsrGraph g(el, space);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.size()));
}
BENCHMARK(BM_CsrBuild);

void BM_TraceReplay(benchmark::State& state) {
  core::Experiment::Options o;
  o.num_threads = 16;
  o.op_cap = 400'000;
  core::Experiment exp("ldbc", 4 * 1024, "bfs", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp.Run(cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(exp.trace().TotalOps()));
}
BENCHMARK(BM_TraceReplay)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
