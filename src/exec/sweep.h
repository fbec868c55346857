// Deterministic parallel sweep execution.
//
// A sweep is a job matrix: workloads × profiles × machine configs. Each
// (workload, profile) cell generates ONE Experiment (graph + functional
// trace) that every config of the cell replays, so comparisons stay paired
// exactly like the serial benches. Cells are seeded independently of job
// count and scheduling order, and rows are emitted in grid order, so:
//
//   DETERMINISM CONTRACT: the same SweepGrid produces bit-identical
//   SimResults rows for --jobs=1 and --jobs=N. Only wall-time metadata
//   (wall_ms, histogram, totals) may differ between runs.
//
// Execution overlaps trace generation and replay: each cell's config jobs
// are submitted the moment that cell's Experiment is built, so a slow cell
// does not serialize the rest of the grid.
//
// Fault tolerance (DESIGN.md §9): a job that throws (bad workload name,
// simulation invariant escalated as SimError, ...) yields a SweepRow with
// status=kFailed and the error text instead of killing the sweep. An
// optional journal streams finished rows to disk so a killed sweep can be
// resumed (--resume) without redoing completed coordinates; because replays
// are deterministic, a resumed table is bit-identical to an uninterrupted
// run. A failed job is never rerun inside the sweep: with its own seed it
// would fail the same way, and any other seed would put a different graph
// in the cell.
//
// graphpim_sim --sweep=SPEC is the command-line front end (see
// ParseGridSpec below for the spec language).
#ifndef GRAPHPIM_EXEC_SWEEP_H_
#define GRAPHPIM_EXEC_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/runner.h"
#include "core/sim_config.h"

namespace graphpim::exec {

// The job matrix. `configs` and `config_names` are parallel arrays; names
// key the result table (typically the mode string, e.g. "GraphPIM").
struct SweepGrid {
  std::vector<std::string> workloads;
  std::vector<std::string> profiles = {"ldbc"};
  std::vector<core::SimConfig> configs;
  std::vector<std::string> config_names;

  VertexId vertices = 32 * 1024;
  int sim_threads = 16;  // cores simulated per job (== trace streams)
  std::uint64_t op_cap = 12'000'000;
  std::uint64_t base_seed = 1;

  std::size_t NumCells() const { return workloads.size() * profiles.size(); }
  std::size_t NumJobs() const { return NumCells() * configs.size(); }
};

// Expands a deterministic per-cell seed from `base_seed` and the cell
// coordinates via SplitMix64. Stable across job counts, scheduling, and
// platforms; distinct cells get decorrelated seeds.
std::uint64_t DeriveCellSeed(std::uint64_t base_seed, std::size_t workload_idx,
                             std::size_t profile_idx);

enum class JobStatus { kOk, kFailed };

const char* ToString(JobStatus s);

// One finished job, keyed by grid coordinates.
struct SweepRow {
  std::size_t workload_idx = 0;
  std::size_t profile_idx = 0;
  std::size_t config_idx = 0;
  std::string workload;
  std::string profile;
  std::string config_name;
  std::uint64_t seed = 0;  // the cell seed the trace was generated with
  core::SimResults results;
  double wall_ms = 0.0;  // replay wall time (timing metadata, not results)

  // Fault tolerance. A failed row has default-constructed `results` and a
  // human-readable `error`; failed rows are never journaled, so a resume
  // retries them.
  JobStatus status = JobStatus::kOk;
  std::string error;
  bool from_journal = false;  // restored by resume, not re-simulated
};

// Snapshot passed to the progress callback as each job retires.
struct SweepProgress {
  std::size_t completed = 0;
  std::size_t total = 0;
  std::string workload;
  std::string profile;
  std::string config_name;
  double wall_ms = 0.0;
  JobStatus status = JobStatus::kOk;
  // Free-form telemetry note appended to the heartbeat line (" | <note>")
  // when non-empty; empty keeps the original line byte-identical.
  std::string note;
};

struct SweepResultTable {
  // Rows in grid order: workload-major, then profile, then config. This
  // ordering (not completion order) is part of the determinism contract.
  std::vector<SweepRow> rows;

  // Fault-tolerance accounting.
  std::size_t failed_rows = 0;   // rows with status == kFailed
  std::size_t resumed_rows = 0;  // rows restored from the journal

  // Timing metadata (NOT covered by the determinism contract).
  Histogram job_wall_ms{5.0, 400};  // 5 ms buckets up to 2 s + overflow
  double build_wall_ms = 0.0;       // summed Experiment construction time
  double run_wall_ms = 0.0;         // summed replay time
  double total_wall_ms = 0.0;       // end-to-end sweep wall clock

  // Lookup by names; nullptr when absent.
  const SweepRow* Find(const std::string& workload, const std::string& profile,
                       const std::string& config_name) const;

  // Speedup of `row` relative to config 0 of the same cell (the
  // conventional "vs baseline" column); 0 when the cell's config 0 is
  // missing or has zero cycles.
  double SpeedupVsFirstConfig(const SweepRow& row) const;
};

class SweepRunner {
 public:
  struct Options {
    int jobs = 1;  // pool width; <= 0 selects hardware_concurrency()

    // Crash-safe journal: when non-empty, every OK row is appended (and
    // flushed) to this JSONL file as it is harvested. With `resume`, rows
    // already present are restored instead of re-simulated; the journal
    // header fingerprints the grid and a mismatch throws SimError.
    std::string journal_path;
    bool resume = false;

    // With a journal: also capture per-BSP-superstep phase deltas during
    // each freshly-simulated job and append them as `{"phases_for":...}`
    // sidecar lines after the row. Sidecars are skipped on load, so
    // resume semantics are unchanged. Ignored without a journal.
    //
    // Span sidecars ({"spans_for":...}) need no separate option: when the
    // journal is open and a config's trace.sample_rate > 0, each freshly
    // simulated row's sampled spans are appended after it.
    bool journal_phases = false;

    // Invoked serially (under a lock) as each job retires; may print.
    std::function<void(const SweepProgress&)> on_progress;
  };

  explicit SweepRunner(Options opts) : opts_(std::move(opts)) {}
  SweepRunner() : SweepRunner(Options{}) {}

  // Runs the full grid; blocks until every job finished. Throws SimError
  // on a resume-journal/grid mismatch or a journal that cannot be opened
  // or written; per-job failures come back as status=kFailed rows, not
  // exceptions. An exception thrown by on_progress propagates too.
  SweepResultTable Run(const SweepGrid& grid) const;

 private:
  Options opts_;
};

// Parses a compact grid spec of the form
//   "workloads=bfs,prank;modes=baseline,graphpim;profiles=ldbc;
//    vertices=16384;threads=16;opcap=2000000;seed=1;full=0;
//    link_ber=1e-12;vault_stall_ppm=50;poison_ppm=5;max_retries=3;
//    retry_ns=8;num_cubes=1,2,4,8;topology=chain"
// Keys may appear in any order, each at most once; all are optional
// except workloads.
// modes accepts baseline|upei|graphpim|ucnopim or "all" (the three
// paper-evaluated machines). Structural keys shape the job matrix; every
// other accepted key is a machine knob owned by SimConfig's field table
// and applied to each config via SimConfig::FromConfig, so fault knobs
// (and full=1 Table IV sizing, topology, ...) apply grid-wide.
// num_cubes is the one knob that accepts a comma list (hmc.num_cubes is
// an accepted alias): multiple counts expand the config axis to
// modes x cube counts, with names suffixed "-c<N>" ("GraphPIM-c4").
// User errors (unknown keys, duplicates, malformed or out-of-range
// values) throw SimError listing the accepted keys.
SweepGrid ParseGridSpec(const std::string& spec);

// The --jobs flag of graphpim_sim, graphpim_serve and the benches: 0 (the
// default) sizes the pool to the host's hardware threads, a positive count
// sizes it exactly. Throws SimError naming `jobs` on a negative count.
int ParseJobs(const Config& cfg);

// "baseline,graphpim" / "all" -> mode list (shared by the CLI drivers).
// Throws SimError on an unknown mode name or an empty list.
std::vector<core::Mode> ParseModeList(const std::string& arg);

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_SWEEP_H_
