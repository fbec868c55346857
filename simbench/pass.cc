// simbench_pass: one benchmark pass of the GraphPIM simulator per process.
//
// The program calls the public entry point of each simulator layer itself and
// times every call from outside, so nothing inside the library is changed or
// instrumented. It never uses core::Experiment, which would fold graph
// generation, CSR build and trace generation into one constructor.
//
//   simbench_pass --pass=paired --algo=bfs --vertices=1048576 --opcap=12000000 --seed=1 --spans=0
//   simbench_pass --pass=serve --vertices=65536 --requests=4000 --seed=1 --spans=0
//   simbench_pass --pass=substrate
//
// A pass is a batch job: one process, one thread, machine modes replayed one
// after another on a machine whose caches start empty. --spans=1 also records
// a span (name, start, end, parent) around each timed call. Every flag a pass
// reads is required: run.py's WORKLOADS table is the only place a workload is
// defined. The pass prints one JSON object on stdout; run.py turns passes into
// benchmark metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/random.h"
#include "core/report.h"
#include "core/runner.h"
#include "graph/csr.h"
#include "graph/generator.h"
#include "hmc/cube.h"
#include "hmc/topology.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "serve/engine.h"
#include "workloads/workload.h"

namespace {

using namespace graphpim;
using Clock = std::chrono::steady_clock;

const core::Mode kModes[] = {core::Mode::kBaseline, core::Mode::kGraphPim};

const char* ModeKey(core::Mode m) {
  return m == core::Mode::kBaseline ? "baseline" : "graphpim";
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// The value of a flag the pass cannot run without.
std::string Need(const Config& cfg, const std::string& key) {
  if (!cfg.Has(key)) GP_THROW("missing --", key);
  return cfg.GetString(key, "");
}

std::uint64_t NeedUint(const Config& cfg, const std::string& key) {
  Need(cfg, key);
  return cfg.GetUint(key, 0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Minimal JSON object writer: keys in insertion order, numbers with every
// significant digit.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Raw(const std::string& key, const std::string& value) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  Json& Obj(const std::string& key, const Json& value) { return Raw(key, value.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Times calls into the simulator. Every call is timed; with spans on, each
// also leaves a span whose parent is the innermost enclosing call.
class Timer {
 public:
  explicit Timer(bool spans) : spans_(spans), origin_(Clock::now()) {}

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  // Runs f() and returns its wall seconds.
  template <typename F>
  double Time(const std::string& name, F&& f) {
    std::size_t idx = 0;
    if (spans_) {
      idx = spans_list_.size();
      spans_list_.push_back({name, open_.empty() ? -1 : open_.back(), 0.0, 0.0});
      open_.push_back(static_cast<int>(idx));
    }
    const double start = Now();
    f();
    const double end = Now();
    if (spans_) {
      spans_list_[idx].start = start;
      spans_list_[idx].end = end;
      open_.pop_back();
    }
    return end - start;
  }

  // [[id, parent, "name", start_s, end_s], ...]; the id is the list index.
  std::string SpansJson() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_list_.size(); ++i) {
      const Span& s = spans_list_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s[%zu,%d,\"%s\",%.9f,%.9f]", i ? "," : "", i,
                    s.parent, s.name.c_str(), s.start, s.end);
      out += buf;
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  bool spans_;
  Clock::time_point origin_;
  std::vector<Span> spans_list_;
  std::vector<int> open_;
};

// Simulated counters of one replay (or of every replay of a serve point).
Json MachineCounters(const StatRegistry& s) {
  Json j;
  j.Num("insts", s.Get("core.insts"))
      .Num("atomics", s.Get("core.atomics"))
      .Num("offloaded_atomics", s.Get("core.offloaded_atomics"))
      .Num("l1_misses", s.Get("cache.l1_misses"))
      .Num("l3_misses", s.Get("cache.l3_misses"))
      .Num("atomic_reqs", s.Get("cache.atomic_reqs"))
      .Num("coherence_invals", s.Get("cache.coherence_invals"))
      .Num("hmc_reads", s.Get("hmc.reads"))
      .Num("hmc_atomics", s.Get("hmc.atomics"))
      .Num("hmc_req_flits", s.Get("hmc.req_flits"))
      .Num("hmc_row_misses", s.Get("hmc.row_misses"));
  return j;
}

// Paired pass: build one trace, replay it under Baseline then GraphPIM.
// Everything the pass builds is also freed inside the timed region, as in a
// user's batch run; the counts the checks need are read out before that.
std::string PairedPass(const Config& cfg, Timer& timer) {
  const std::string algo = Need(cfg, "algo");
  const auto vertices = static_cast<VertexId>(NeedUint(cfg, "vertices"));
  const std::uint64_t opcap = NeedUint(cfg, "opcap");
  const std::uint64_t seed = NeedUint(cfg, "seed");
  const double cpu0 = CpuSeconds();

  Json stages, counts, modes;
  double setup_s = 0.0;
  const double run_s = timer.Time("pass", [&] {
    const double start = timer.Now();
    graph::AddressSpace space;
    std::unique_ptr<graph::CsrGraph> g;
    {
      std::unique_ptr<graph::EdgeList> el;
      stages.Num("graph.generate_s", timer.Time("graph.generate", [&] {
        el = std::make_unique<graph::EdgeList>(
            graph::GenerateProfile("ldbc", vertices, seed));
      }));
      stages.Num("graph.csr_s", timer.Time("graph.csr", [&] {
        g = std::make_unique<graph::CsrGraph>(*el, space);
        el.reset();
      }));
    }
    workloads::Trace trace;
    stages.Num("workloads.trace_s", timer.Time("workloads.trace", [&] {
      auto wl = workloads::CreateWorkload(algo);
      workloads::TraceBuilder tb(16, &space, 0.06, seed);
      if (opcap != 0) tb.SetOpCap(opcap);
      wl->Generate(*g, space, tb);
      trace = tb.Take();
    }));
    setup_s = timer.Now() - start;
    std::vector<core::SimResults> results;
    for (core::Mode m : kModes) {
      const std::string key = ModeKey(m);
      stages.Num("core.replay_s." + key, timer.Time("core.replay." + key, [&] {
        results.push_back(core::RunSimulation(trace, core::SimConfig::Scaled(m),
                                              space.pmr_base(), space.pmr_end(),
                                              core::RunOptions{}));
      }));
    }
    std::size_t export_bytes = 0;
    stages.Num("core.export_s", timer.Time("core.export", [&] {
      for (const core::SimResults& r : results) {
        export_bytes += core::ToJson(r).size() + core::FormatReport(r).size();
      }
    }));

    // Barriers are replayed as superstep rendezvous, not retired as insts.
    std::uint64_t barrier_ops = 0;
    for (const cpu::UopStream& s : trace.streams) {
      for (std::size_t t = 0; t < s.num_tiles(); ++t) {
        const std::size_t lanes = std::min(cpu::kTileOps, s.size() - t * cpu::kTileOps);
        const std::uint8_t* type = s.tile(t).type;
        barrier_ops += static_cast<std::uint64_t>(std::count(
            type, type + lanes, static_cast<std::uint8_t>(cpu::OpType::kBarrier)));
      }
    }
    counts.Num("graph.edges", static_cast<double>(g->num_edges()))
        .Num("workloads.uops", static_cast<double>(trace.TotalOps()))
        .Num("workloads.barrier_ops", static_cast<double>(barrier_ops))
        .Num("core.export_bytes", static_cast<double>(export_bytes));
    for (std::size_t i = 0; i < results.size(); ++i) {
      Json mj = MachineCounters(results[i].raw);
      mj.Num("cycles", static_cast<double>(results[i].cycles));
      modes.Obj(ModeKey(kModes[i]), mj);
    }
  });
  const double cpu_s = CpuSeconds() - cpu0;

  Json out;
  out.Raw("pass", "\"paired\"")
      .Num("run_s", run_s)
      .Num("setup_s", setup_s)
      .Num("cpu_s", cpu_s)
      .Num("peak_rss_mb", PeakRssMb())
      .Obj("stages", stages)
      .Obj("counts", counts)
      .Obj("modes", modes);
  return out.str();
}

// Serve pass: build the resident graph, run one serve point per mode.
// The served graph and every serve point are freed inside the timed region.
std::string ServePass(const Config& cfg, Timer& timer) {
  // Two tenants, and an offered load at which neither mode drops a request:
  // at 2e5 qps both serve all 4000 requests, at 1e6 qps Baseline drops most.
  constexpr std::uint32_t kTenants = 2;
  constexpr double kQps = 2e5;
  serve::ServedGraph::Options go;
  go.num_vertices = static_cast<VertexId>(NeedUint(cfg, "vertices"));
  go.num_tenants = kTenants;
  go.seed = NeedUint(cfg, "seed");
  serve::ServeParams params;
  params.traffic.num_requests = NeedUint(cfg, "requests");
  params.traffic.num_tenants = kTenants;
  params.traffic.qps = kQps;
  params.traffic.seed = go.seed;
  const double cpu0 = CpuSeconds();

  Json stages, modes;
  double setup_s = 0.0;
  const double run_s = timer.Time("pass", [&] {
    const double start = timer.Now();
    std::unique_ptr<serve::ServedGraph> sg;
    stages.Num("serve.graph_s", timer.Time("serve.graph", [&] {
      sg = std::make_unique<serve::ServedGraph>(go);
    }));
    setup_s = timer.Now() - start;
    for (core::Mode m : kModes) {
      const std::string key = ModeKey(m);
      params.cfg = core::SimConfig::Scaled(m);
      serve::ServePoint pt;
      stages.Num("serve.point_s." + key, timer.Time("serve.point." + key, [&] {
        pt = serve::RunServePoint(*sg, params);
      }));
      Json mj = MachineCounters(pt.raw);
      mj.Num("offered", static_cast<double>(pt.offered))
          .Num("served", static_cast<double>(pt.served))
          .Num("dropped", static_cast<double>(pt.dropped))
          .Num("batches", static_cast<double>(pt.batches))
          .Num("replayed_ops", static_cast<double>(pt.replayed_ops))
          .Num("p99_ns", pt.p99_ns);
      modes.Obj(key, mj);
    }
  });
  const double cpu_s = CpuSeconds() - cpu0;

  Json out;
  out.Raw("pass", "\"serve\"")
      .Num("run_s", run_s)
      .Num("setup_s", setup_s)
      .Num("cpu_s", cpu_s)
      .Num("peak_rss_mb", PeakRssMb())
      .Obj("stages", stages)
      .Obj("modes", modes);
  return out.str();
}

// Median host nanoseconds per call of `op` over `reps` batches of `n` calls.
template <typename F>
double MedianNsPerCall(int reps, int n, F&& op) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) op(i);
    const auto t1 = Clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() / n);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

// Substrate rates, each timed on the component directly, the fixed cost of
// one RunSimulation call on an empty trace, and the cost of one span.
std::string SubstratePass() {
  constexpr int kReps = 5;
  std::vector<Addr> addrs(1 << 16);
  Rng rng(1);
  std::uint64_t sink = 0;

  mem::CacheArray cache(256 * kKiB, 8, 64);
  for (Addr a = 0; a < cache.size_bytes(); a += 64) cache.Insert(a, false);
  for (Addr& a : addrs) a = rng.NextBounded(2 * cache.size_bytes());
  const double lookup_ns = MedianNsPerCall(kReps, 2'000'000, [&](int i) {
    sink += cache.Lookup(addrs[static_cast<std::size_t>(i) & 0xffff]);
  });

  hmc::HmcParams hp;
  hmc::HmcNetwork net(hp, nullptr, 0, 0);
  mem::CacheHierarchy hier(16, mem::CacheParams{}, &net);
  for (Addr& a : addrs) a = rng.NextBounded(1 << 26);
  Tick t = 0;
  const double access_ns = MedianNsPerCall(kReps, 100'000, [&](int i) {
    t += 500;
    sink += hier.Access(i & 15, mem::AccessType::kRead,
                        addrs[static_cast<std::size_t>(i) & 0xffff], t)
                .complete;
  });

  hmc::HmcCube cube(hp);
  for (Addr& a : addrs) a = rng.NextBounded(1 << 28);
  t = 0;
  const double read_ns = MedianNsPerCall(kReps, 200'000, [&](int i) {
    t += 100;
    sink += cube.Read(addrs[static_cast<std::size_t>(i) & 0xffff], 64, t).response_at_host;
  });
  const double atomic_ns = MedianNsPerCall(kReps, 200'000, [&](int i) {
    t += 100;
    sink += cube.Atomic(addrs[static_cast<std::size_t>(i) & 0xffff],
                        hmc::AtomicOp::kDualAdd8, hmc::Value16{}, false, t)
                .response_at_host;
  });

  const workloads::Trace empty;
  const graph::AddressSpace space;
  const core::SimConfig sim = core::SimConfig::Scaled(core::Mode::kGraphPim);
  const double call_us = MedianNsPerCall(kReps, 40, [&](int) {
    sink += core::RunSimulation(empty, sim, space.pmr_base(), space.pmr_end(),
                                core::RunOptions{})
                .cycles;
  }) * 1e-3;

  // Cost of one span: a Timer call with spans on minus the same call with
  // spans off, each around an empty call nested in a root span as in a pass.
  auto span_ns = [&](bool spans) {
    constexpr int kSpans = 100'000;
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      Timer tm(spans);
      ns.push_back(tm.Time("pass", [&] {
        for (int i = 0; i < kSpans; ++i) tm.Time("core.replay.graphpim", [] {});
      }) * 1e9 / kSpans);
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
  };
  const double untraced_ns = span_ns(false);
  const double trace_span_ns = span_ns(true) - untraced_ns;

  Json out;
  out.Raw("pass", "\"substrate\"")
      .Num("mem.cache_lookup_ns", lookup_ns)
      .Num("mem.hierarchy_access_ns", access_ns)
      .Num("hmc.read_ns", read_ns)
      .Num("hmc.atomic_ns", atomic_ns)
      .Num("core.call_overhead_us", call_us)
      .Num("trace.span_ns", trace_span_ns)
      .Num("sink", static_cast<double>(sink & 0xff));
  return out.str();
}

int Run(const Config& cfg) {
  cfg.RequireKeys({"pass", "algo", "vertices", "opcap", "seed", "requests", "spans"});
  const std::string pass = Need(cfg, "pass");
  if (pass == "substrate") {
    std::printf("%s\n", SubstratePass().c_str());
    return 0;
  }
  const bool spans = NeedUint(cfg, "spans") != 0;
  Timer timer(spans);
  std::string out;
  if (pass == "paired") {
    out = PairedPass(cfg, timer);
  } else if (pass == "serve") {
    out = ServePass(cfg, timer);
  } else {
    GP_THROW("unknown --pass=", pass, " (paired, serve or substrate)");
  }
  if (spans) {
    out.pop_back();
    out += ",\"spans\":" + timer.SpansJson() + "}";
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(Config::FromArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench_pass: error: %s\n", e.what());
    return 1;
  }
}
