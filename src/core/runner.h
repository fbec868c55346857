// Run harness: trace generation + multi-core replay under a configuration.
//
// Typical use (and what every bench does):
//
//   Experiment exp("ldbc", 16 * 1024, "bfs");
//   SimResults base = exp.Run(SimConfig::Scaled(Mode::kBaseline));
//   SimResults pim  = exp.Run(SimConfig::Scaled(Mode::kGraphPim));
//   double speedup  = Speedup(base, pim);
//
// Raw-trace callers use the single RunSimulation entry point and pass
// RunOptions{} (or instrumentation) explicitly.
//
// The trace is generated once and replayed under every machine so the
// comparison is paired.
#ifndef GRAPHPIM_CORE_RUNNER_H_
#define GRAPHPIM_CORE_RUNNER_H_

#include <memory>
#include <string>

#include "core/machine.h"
#include "core/results.h"
#include "core/sim_config.h"
#include "graph/csr.h"
#include "graph/generator.h"
#include "graph/region.h"
#include "pmem/crash.h"
#include "pmem/pmem.h"
#include "workloads/workload.h"

namespace graphpim::core {

// THE simulation entry point: builds one Machine for `cfg` (which is
// Validate()d first, so hand-built configs get the same gate as parsed
// ones), replays `trace` on it once and Summarizes the run.
// `pmr_base`/`pmr_end` delimit the PMR the POU recognizes. `opts` carries
// per-run instrumentation; callers with none pass `RunOptions{}` —
// deliberately no default, so every call site states its instrumentation
// intent and there is exactly one overload to audit.
//
// Each call owns all its state, so independent runs (--jobs, sweeps) go in
// parallel on an exec::ThreadPool. Callers that replay many short traces
// on one config keep a Machine instead (core/machine.h).
SimResults RunSimulation(const workloads::Trace& trace, const SimConfig& cfg,
                         Addr pmr_base, Addr pmr_end, const RunOptions& opts);

// Derives a run's SimResults from its counter registry and end tick under
// `cfg`: the one place the reported fields (cycles, IPC, MPKI, the Fig 2
// and Fig 9 fractions, FLITs, energy) are computed. RunSimulation calls it
// on the finished run's registry, and the sweep journal on a restored
// one, so a resumed row equals the journaled one bit for bit.
// `trace_peak_bytes` is not a counter and stays 0.
SimResults Summarize(const SimConfig& cfg, StatRegistry raw, Tick end_tick);

// Speedup of `other` over `base` (paper convention: normalized to baseline).
double Speedup(const SimResults& base, const SimResults& other);

// Owns a graph + workload + generated trace for repeated paired runs.
class Experiment {
 public:
  struct Options {
    int num_threads = 16;
    std::uint64_t seed = 1;
    std::uint64_t op_cap = 12'000'000;  // sampling guard for huge inputs

    // Persist discipline the workload generates with (DESIGN.md §14).
    // kOff keeps the trace byte-identical to pre-pmem builds; the mutant
    // modes seed checker-visible bugs on purpose.
    pmem::PersistMode persist = pmem::PersistMode::kOff;

    // Per-workload parameter blocks (DESIGN.md §16), forwarded to
    // CreateWorkload. Defaults are a strict passthrough for the
    // parameterless workloads.
    workloads::WorkloadParams params;
  };

  // Generates a `profile` graph ("ldbc"/"bitcoin"/"twitter") with
  // `num_vertices` vertices and runs `workload_name` on it functionally,
  // capturing the trace.
  Experiment(const std::string& profile, VertexId num_vertices,
             const std::string& workload_name, const Options& opts);
  Experiment(const std::string& profile, VertexId num_vertices,
             const std::string& workload_name)
      : Experiment(profile, num_vertices, workload_name, Options()) {}

  // Same but over a caller-provided edge list.
  Experiment(const graph::EdgeList& el, const std::string& workload_name,
             const Options& opts);
  Experiment(const graph::EdgeList& el, const std::string& workload_name)
      : Experiment(el, workload_name, Options()) {}

  SimResults Run(const SimConfig& cfg,
                 const RunOptions& opts = RunOptions()) const;

  const graph::CsrGraph& graph() const { return *graph_; }
  const workloads::Workload& workload() const { return *workload_; }
  const workloads::Trace& trace() const { return trace_; }

  // Crash-harness surface (non-null/meaningful only for persist-capable
  // workloads generated with persist != kOff).
  const pmem::UpdateLog* update_log() const { return workload_->update_log(); }
  pmem::RecoveryInvariant recovery_invariant() const {
    return workload_->recovery_invariant();
  }
  bool persist_capable() const { return workload_->persist_capable(); }
  Addr pmr_base() const { return space_->pmr_base(); }
  Addr pmr_end() const { return space_->pmr_end(); }

 private:
  // Creates the workload and runs it over graph_ to capture trace_.
  void GenerateTrace(const std::string& workload_name, const Options& opts);

  std::unique_ptr<graph::AddressSpace> space_;
  std::unique_ptr<graph::CsrGraph> graph_;
  std::unique_ptr<workloads::Workload> workload_;
  workloads::Trace trace_;
};

}  // namespace graphpim::core

#endif  // GRAPHPIM_CORE_RUNNER_H_
