// Persistent PMR (DESIGN.md §14): a PMEM-backed variant of the PIM Memory
// Region.
//
// The PMR is uncacheable host memory (Section III-A/B) — one flush/fence
// discipline away from behaving like persistent memory. This subsystem
// models that variant behind pmem.enable:
//
//   - PmemParams / the pmem.* KnobRow rows: flush and fence costs, plus an
//     optional single-shot crash tick.
//   - PersistDomain: the timing layer. It charges flush_ns per line
//     writeback and fence_ns per persist barrier in the micro-op replay
//     loop, tracks which PMR stores each fence made durable, and exports
//     pmem.* stats through the StatRegistry.
//   - PersistLog: the per-run record of every PMR store with its issue and
//     persist ticks — the input to the crash/recovery harness (crash.h)
//     and the ground truth the persist-ordering checker (checker.h) is
//     validated against.
//
// Contract: with pmem.enable=0 no PersistDomain is constructed, no pmem.*
// counters are interned, and persist micro-ops cost nothing — the
// passthrough is byte-identical and gated in scripts/golden_identity.sh.
#ifndef GRAPHPIM_PMEM_PMEM_H_
#define GRAPHPIM_PMEM_PMEM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace graphpim::pmem {

// The pmem.* machine knobs (bound in core/sim_config.cc's field table).
struct PmemParams {
  // Master switch. Off: the PMR is ordinary (volatile) HMC memory and the
  // whole subsystem is a strict no-op.
  bool enable = false;

  // Cost of one clwb-style line writeback into the persist queue, ns.
  double flush_ns = 40.0;

  // Cost of one sfence-style persist barrier (write-pending-queue drain
  // on top of waiting out in-flight flushes), ns.
  double fence_ns = 20.0;

  // Single-shot crash point in simulated ns; < 0 disables. Requires
  // enable=1 (Validate cross-check names pmem.crash_tick otherwise).
  double crash_tick_ns = -1.0;
};

// A store's persist tick before any fence covered it.
inline constexpr Tick kNeverPersisted = ~Tick{0};

// One PMR store as the persist domain saw it. `ordinal` counts the PMR
// stores of `core` in stream order — the same numbering
// TraceBuilder::PmrStoreCount exposes to workloads, which is what lets an
// UpdateRecord name payload/publish stores without carrying addresses.
struct PersistStoreEvent {
  int core = 0;
  std::uint64_t ordinal = 0;  // per-core PMR-store ordinal
  Addr line = 0;              // 64B-aligned line address
  std::uint8_t size = 0;      // store width (8B stores are powerfail-atomic)
  Tick issue = 0;             // when the store entered the memory system
  Tick persist = kNeverPersisted;  // first fence that made it durable
};

// The per-run persist record consumed by the crash/recovery harness.
struct PersistLog {
  std::vector<PersistStoreEvent> stores;
  Tick end_tick = 0;  // run completion (crash ticks are sampled in [0, end])
  bool empty() const { return stores.empty(); }
};

// The timing layer. Owned by core::MemorySystem when cfg.pmem.enable; one
// domain per run (runs are single-threaded, like the SpanRecorder).
//
// Per-core persist semantics mirror x86 + eADR-less PMEM: a flush enqueues
// the line's pending stores toward the media, and a fence completes no
// earlier than every prior flush of that core, charges fence_ns, and makes
// everything those flushes covered durable (sfence orders ALL prior
// flushes of the thread, not just the last).
class PersistDomain {
 public:
  PersistDomain(const PmemParams& params, Addr pmr_base, Addr pmr_end,
                StatRegistry* stats);

  // A store to [pmr_base, pmr_end) issued at `when`; records a
  // PersistStoreEvent and dirties the line. Non-PMR stores must not be
  // passed in.
  void OnStore(int core, Addr addr, std::uint8_t size, Tick when);

  // A kFlush of addr's line issued at `when`; returns the writeback
  // completion tick (when + flush_ns). Flushing a clean or already-flushed
  // line still costs flush_ns but counts as redundant.
  Tick OnFlush(int core, Addr addr, Tick when);

  // A kFence issued at `when`; returns its completion tick
  // (max(when, latest pending flush) + fence_ns) and stamps the persist
  // tick of every store a prior flush of this core covered.
  Tick OnFence(int core, Tick when);

  // Seals the run: counts stores never covered by a flush+fence
  // (pmem.unpersisted_at_end) and stamps the log's end tick.
  void Finish(Tick end_tick);

  // Restores the state of a freshly built domain: no stores, flushes or
  // fences seen, an empty log, and the pmem.* counters touched again.
  // Call it after resetting the registry.
  void Reset();

  PersistLog TakeLog() { return std::move(log_); }
  const PersistLog& log() const { return log_; }

  bool InPmr(Addr a) const { return a >= pmr_base_ && a < pmr_end_; }

 private:
  // Touches every pmem.* counter, so a persistent run always carries the
  // full family (the report section keys off pmem.flushes being present).
  void TouchCounters();

  // Per-core, per-line persist state.
  struct LineState {
    std::vector<std::size_t> dirty;    // log indices stored since last flush
    std::vector<std::size_t> flushed;  // flushed, awaiting a fence
    Tick flush_done = 0;               // latest writeback completion
  };

  PmemParams params_;
  Addr pmr_base_;
  Addr pmr_end_;
  Tick flush_ticks_;
  Tick fence_ticks_;

  StatRegistry* stats_;
  StatId sid_stores_;
  StatId sid_flushes_;
  StatId sid_redundant_flushes_;
  StatId sid_fences_;
  StatId sid_flush_ns_;
  StatId sid_fence_ns_;
  StatId sid_persisted_;
  StatId sid_unpersisted_;

  std::vector<std::unordered_map<Addr, LineState>> lines_;  // per core
  std::vector<std::uint64_t> store_seq_;  // per-core PMR-store ordinals
  // Lines of each core holding flushed-but-unfenced stores, and the latest
  // pending writeback completion the next fence must wait out.
  std::vector<std::vector<Addr>> pending_lines_;
  std::vector<Tick> pending_flush_done_;

  PersistLog log_;
};

}  // namespace graphpim::pmem

#endif  // GRAPHPIM_PMEM_PMEM_H_
