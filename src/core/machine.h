// One simulated machine: the memory system, the cores and the one replay
// loop of a machine configuration.
//
// Every Replay resets the machine to the cold state a fresh one has:
// empty caches, idle links, vaults and UC slots, fault streams at their
// first decision, an empty flight recorder and persist domain, and zeroed
// counters. So replaying a sequence of traces on one machine gives, trace
// by trace, the end tick, counters, spans and persist log that a new
// machine per trace gives (`Machine.*` in tests/test_machine.cc checks
// this in every mode). A machine built once and reset between replays
// skips the construction of its 33 cache arrays, 32 vaults and ~450
// interned counters per replay:
//
//   core::Machine m(cfg, space.pmr_base(), space.pmr_end());
//   for (const workloads::Trace& t : batches) {
//     const Tick end = m.Replay(t, core::RunOptions{});
//     totals.Merge(m.stats());
//   }
//
// RunSimulation builds one machine per call; RunServePoint builds one per
// serve point and replays every batch on it.
#ifndef GRAPHPIM_CORE_MACHINE_H_
#define GRAPHPIM_CORE_MACHINE_H_

#include <memory>
#include <vector>

#include "common/span.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/sim_config.h"
#include "pmem/pmem.h"
#include "workloads/trace.h"

namespace graphpim::cpu {
class OooCore;
}  // namespace graphpim::cpu

namespace graphpim::core {

class MemorySystem;

// Optional instrumentation attached to one replay. The two interval logs
// follow one rule: a replay overwrites each attached log, so a log reused
// across replays holds only the last replay's intervals.
struct RunOptions {
  // When non-null, receives a barrier log: one interval at every BSP
  // superstep boundary (the barrier rendezvous) plus a final drain
  // interval, each carrying the counter deltas of the run's registry.
  trace::IntervalLog* phases = nullptr;

  // When non-null AND cfg.trace_sample_rate > 0, receives the run's
  // sampled transaction spans (overwritten, not appended). The recorder
  // itself lives inside the Machine; with sample_rate == 0 no recorder
  // is built and this stays untouched. Span statistics (span.*) are folded
  // into the run's registry whenever sampling is on, regardless of this
  // pointer.
  trace::SpanLog* spans = nullptr;

  // When non-null AND cfg.pmem.enable, receives the run's persist log (one
  // PersistStoreEvent per PMR store, with issue/persist ticks) — the input
  // to the crash/recovery harness. Untouched when the persist domain is
  // off.
  pmem::PersistLog* persist = nullptr;

  // When non-null, receives a window log (DESIGN.md §17): windows of
  // cfg.telemetry_window_ns carrying counter deltas and machine gauges,
  // cut at the end of each replay-loop round, so the log is bit-identical
  // across reruns. With window_ns == 0 no window log is built and this
  // receives an empty log.
  trace::IntervalLog* timeline = nullptr;
};

class Machine {
 public:
  // Builds the cold machine of `cfg`, which is Validate()d first, so
  // hand-built configs get the same gate as parsed ones. `pmr_base` and
  // `pmr_end` delimit the PMR the POU recognizes.
  Machine(const SimConfig& cfg, Addr pmr_base, Addr pmr_end);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Replays `trace` from the cold state and returns its end tick: the
  // latest completion over the cores. `opts` carries the instrumentation;
  // callers with none pass `RunOptions{}`.
  //
  // The replay runs on the calling thread: one loosely-synchronized
  // quantum loop advances the cores in index order against the shared
  // memory system and starts no threads. Independent machines (--jobs,
  // sweeps, serve points) go in parallel on an exec::ThreadPool.
  Tick Replay(const workloads::Trace& trace, const RunOptions& opts);

  // The last replay's counter registry: every component and every core
  // counts into it, and the persist domain and the flight recorder have
  // folded their totals into it. Summarize derives the results from it.
  const StatRegistry& stats() const;

  // Moves the registry out for a machine that replays no more
  // (`std::move(machine).TakeStats()`, as RunSimulation does).
  StatRegistry TakeStats() &&;

 private:
  SimConfig cfg_;
  // The flight recorder exists only when sampling is on: with the default
  // trace_sample_rate == 0 every hook site downstream sees a null recorder
  // and compiles to a never-taken branch.
  std::unique_ptr<trace::SpanRecorder> spans_;
  std::unique_ptr<MemorySystem> mem_;
  std::vector<std::unique_ptr<cpu::OooCore>> cores_;
};

}  // namespace graphpim::core

#endif  // GRAPHPIM_CORE_MACHINE_H_
