#include "bench_util.h"

#include <algorithm>
#include <cstdio>

#include "exec/sweep.h"

namespace graphpim::bench {

BenchContext ParseBench(int argc, char** argv, VertexId default_vertices,
                        std::uint64_t default_op_cap) {
  BenchContext ctx;
  ctx.cfg = Config::FromArgs(argc, argv);
  ctx.vertices =
      static_cast<VertexId>(ctx.cfg.GetUint("vertices", default_vertices));
  ctx.full = ctx.cfg.GetBool("full", false);
  ctx.op_cap = ctx.cfg.GetUint("opcap", default_op_cap);
  ctx.threads = static_cast<int>(ctx.cfg.GetInt("threads", 16));
  ctx.seed = ctx.cfg.GetUint("seed", 1);
  ctx.profile = ctx.cfg.GetString("profile", "ldbc");
  ctx.jobs = exec::ParseJobs(ctx.cfg);
  return ctx;
}

exec::ThreadPool& BenchContext::Pool() const {
  if (pool_ == nullptr) pool_ = std::make_shared<exec::ThreadPool>(jobs);
  return *pool_;
}

std::vector<core::SimResults> RunGrid(const core::Experiment& exp,
                                      const std::vector<core::SimConfig>& cfgs,
                                      const BenchContext& ctx) {
  exec::ThreadPool& pool = ctx.Pool();
  if (pool.OnWorkerThread()) {
    // Nested use (e.g. inside ParallelMap): run inline; blocking on the
    // pool from a worker could starve it. Results are identical either way.
    std::vector<core::SimResults> out;
    out.reserve(cfgs.size());
    for (const core::SimConfig& cfg : cfgs) out.push_back(exp.Run(cfg));
    return out;
  }
  std::vector<std::future<core::SimResults>> futs;
  futs.reserve(cfgs.size());
  for (const core::SimConfig& cfg : cfgs) {
    futs.push_back(pool.Submit([&exp, cfg] { return exp.Run(cfg); }));
  }
  std::vector<core::SimResults> out;
  out.reserve(cfgs.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

std::vector<core::SimResults> RunPaired(const core::Experiment& exp,
                                        const std::vector<core::Mode>& modes,
                                        const BenchContext& ctx) {
  std::vector<core::SimConfig> cfgs;
  cfgs.reserve(modes.size());
  for (core::Mode m : modes) cfgs.push_back(ctx.MakeConfig(m));
  return RunGrid(exp, cfgs, ctx);
}

void PrintHeader(const std::string& title, const BenchContext& ctx) {
  std::printf("==============================================================\n");
  std::printf("GraphPIM reproduction | %s\n", title.c_str());
  std::printf("machine: %s\n",
              ctx.MakeConfig(core::Mode::kGraphPim).Describe().c_str());
  std::printf("dataset: %s-like synthetic graph, %u vertices (op cap %llu)\n",
              ctx.profile.c_str(), ctx.vertices,
              static_cast<unsigned long long>(ctx.op_cap));
  std::printf("==============================================================\n");
}

std::string Bar(double frac, int width) {
  double clamped = std::clamp(frac, 0.0, 1.5);
  int n = static_cast<int>(clamped / 1.5 * width + 0.5);
  std::string out(static_cast<std::size_t>(n), '#');
  return out;
}

}  // namespace graphpim::bench
