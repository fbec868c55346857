// Shared harness utilities for the per-figure/table bench binaries.
//
// Every bench accepts the same command-line overrides:
//   --vertices=N    LDBC-like graph size (default per bench)
//   --full=1        Table IV full-size caches (default: scaled, DESIGN.md)
//   --opcap=N       micro-op sampling cap per run
//   --threads=N     worker threads (== cores simulated)
//   --seed=N        generator seed
//   --jobs=N        host threads replaying configs in parallel
//                   (0 = hardware concurrency, negative = error; results
//                   are identical for any N — see src/exec determinism
//                   contract)
#ifndef GRAPHPIM_BENCH_BENCH_UTIL_H_
#define GRAPHPIM_BENCH_BENCH_UTIL_H_

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/runner.h"
#include "exec/thread_pool.h"

namespace graphpim::bench {

struct BenchContext {
  Config cfg;
  VertexId vertices = 32 * 1024;
  bool full = false;
  std::uint64_t op_cap = 12'000'000;
  int threads = 16;
  std::uint64_t seed = 1;
  std::string profile = "ldbc";
  int jobs = 0;  // pool width; 0 = hardware concurrency

  // Builds the machine through the shared SimConfig::FromConfig path, so a
  // bench invocation accepts every field-table knob (--full, --threads,
  // --num-cubes, --topology, fault knobs, ...) without bespoke plumbing.
  core::SimConfig MakeConfig(core::Mode mode) const {
    return core::SimConfig::FromConfig(cfg, mode);
  }

  std::unique_ptr<core::Experiment> MakeExperiment(const std::string& workload) const {
    core::Experiment::Options o;
    o.num_threads = threads;
    o.seed = seed;
    o.op_cap = op_cap;
    return std::make_unique<core::Experiment>(profile, vertices, workload, o);
  }

  // Process-wide replay pool, created on first use with `jobs` workers.
  exec::ThreadPool& Pool() const;

 private:
  mutable std::shared_ptr<exec::ThreadPool> pool_;
};

// Replays `exp` under every config on the shared pool; results come back
// in input order, bit-identical to serial exp.Run() calls.
std::vector<core::SimResults> RunGrid(const core::Experiment& exp,
                                      const std::vector<core::SimConfig>& cfgs,
                                      const BenchContext& ctx);

// Paired-run helper: replays `exp` under ctx.MakeConfig(m) for each mode,
// in parallel, keeping the paper's paired-trace methodology.
std::vector<core::SimResults> RunPaired(const core::Experiment& exp,
                                        const std::vector<core::Mode>& modes,
                                        const BenchContext& ctx);

// Runs `fn(item)` for every item on the shared pool and returns the results
// in input order (completion order does not leak out, so bench output stays
// deterministic). `fn` may itself call RunGrid/RunPaired: nested calls from
// a worker thread execute inline rather than re-entering the pool.
template <typename Item, typename F>
auto ParallelMap(const std::vector<Item>& items, const BenchContext& ctx, F fn)
    -> std::vector<std::invoke_result_t<F&, const Item&>> {
  using R = std::invoke_result_t<F&, const Item&>;
  exec::ThreadPool& pool = ctx.Pool();
  std::vector<std::future<R>> futs;
  futs.reserve(items.size());
  for (const Item& item : items) {
    futs.push_back(pool.Submit([&fn, &item] { return fn(item); }));
  }
  std::vector<R> out;
  out.reserve(items.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

// Parses the common flags; `default_vertices` lets heavyweight sweeps pick
// a smaller default.
BenchContext ParseBench(int argc, char** argv, VertexId default_vertices = 32 * 1024,
                        std::uint64_t default_op_cap = 12'000'000);

// Prints the standard banner: bench title + Table IV-style machine line.
void PrintHeader(const std::string& title, const BenchContext& ctx);

// ASCII bar of length proportional to `frac` (clamped to [0, 1.5]).
std::string Bar(double frac, int width = 40);

}  // namespace graphpim::bench

#endif  // GRAPHPIM_BENCH_BENCH_UTIL_H_
