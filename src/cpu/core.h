// Out-of-order core timing model (MacSim-equivalent for this study).
//
// A timestamp-algebra ROB-window model: ops issue at up to `issue_width`
// per cycle, wait for their producer when annotated dep-prev, occupy a ROB
// entry until in-order retirement, and complete after an execution latency
// supplied by the memory system for memory ops. Host atomic instructions in
// the baseline serialize the pipeline (write-buffer drain + freeze, Section
// II-D); offloaded PIM atomics behave like non-blocking loads.
//
// The model accumulates the attribution counters behind the paper's
// breakdowns: Fig 2 (frontend / badspec / retiring / backend) and Fig 9
// (atomic-inCore / atomic-inCache / other).
#ifndef GRAPHPIM_CPU_CORE_H_
#define GRAPHPIM_CPU_CORE_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "cpu/memory_interface.h"
#include "cpu/uop.h"
#include "cpu/uop_stream.h"

namespace graphpim::cpu {

struct CoreParams {
  double freq_ghz = 2.0;      // Table IV
  int issue_width = 4;        // Table IV
  int rob_size = 192;
  int mispredict_penalty = 14;      // cycles
  int atomic_incore_overhead = 10;  // cycles: freeze + write-buffer drain
  int fp_compute_lat = 4;           // cycles for FP ALU ops
};

// Every core counts its replay into the run's registry under the "core."
// scope, so the counters are totals over all cores:
//   core.insts, core.computes, core.branches, core.mispredicts,
//   core.loads, core.stores, core.atomics, core.offloaded_atomics,
// and the attribution sums (in Ticks) behind Fig 2 / Fig 9:
//   core.atomic_incore_ticks   — freeze + drain + RMW wait (baseline)
//   core.atomic_incache_ticks  — tag walks + coherence for atomics
//   core.atomic_dep_ticks      — dependents waiting on offloaded atomics
//   core.badspec_ticks, core.frontend_ticks
// The "core." scope is hidden from the compatibility Items() view (it
// surfaces through SimResults headline fields instead).

class OooCore {
 public:
  enum class Status {
    kRunning,   // paused at the quantum boundary, more ops pending
    kBarrier,   // reached a barrier op; waiting for release
    kDone,      // trace exhausted
  };

  // `stats` (may be null) is the run's registry the core counts into.
  OooCore(int id, const CoreParams& params, MemoryInterface* mem,
          StatRegistry* stats = nullptr);

  // Installs the trace to replay and resets the pipeline state. The
  // counters belong to the registry and are left as they are.
  void Reset(const UopStream* trace);

  // Advances until `until` ticks, a barrier, or the end of the trace.
  Status Advance(Tick until);

  // Barrier handling: when Advance() returns kBarrier, arrival time is the
  // tick at which all prior work completed. ReleaseBarrier() resumes the
  // core no earlier than `release`.
  Tick BarrierArrival() const { return barrier_arrival_; }
  void ReleaseBarrier(Tick release);

  // Current core time (issue front). After kDone, the completion time of
  // all work.
  Tick Now() const;

  // Earliest tick at which this core can issue again (accounts for
  // pending pipeline blocks); lets the run loop skip dead quanta.
  Tick NextReadyTick() const {
    return issue_block_ > issue_tick_ ? issue_block_ : issue_tick_;
  }

  int id() const { return id_; }

  Tick CyclesToTicks(std::uint64_t cycles) const {
    return static_cast<Tick>(static_cast<double>(cycles) * 1000.0 / params_.freq_ghz);
  }

 private:
  struct RobEntry {
    Tick complete = 0;
    bool is_atomic = false;
  };

  // Issues one op; returns false if it was a barrier (not consumed-past).
  void IssueOp(const MicroOp& op);

  // Earliest tick a new op can issue given bandwidth, ROB space and flushes.
  Tick NextIssueSlot();

  // Consumes one issue slot at tick `t`.
  void ConsumeIssueSlot(Tick t);

  int id_;
  CoreParams params_;
  MemoryInterface* mem_;
  Tick cycle_ticks_;

  const UopStream* trace_ = nullptr;
  std::size_t pos_ = 0;

  // Issue bandwidth state.
  Tick issue_tick_ = 0;   // cycle-aligned tick of the current issue group
  int issued_in_cycle_ = 0;
  Tick issue_block_ = 0;  // no issue before this (flush / serialization)

  // ROB: fixed ring.
  std::vector<RobEntry> rob_;
  std::size_t rob_head_ = 0;
  std::size_t rob_count_ = 0;

  Tick prev_complete_ = 0;       // producer for dep-prev consumers
  bool prev_was_atomic_ = false;
  Tick max_outstanding_ = 0;     // max completion of all issued ops
  Tick max_store_complete_ = 0;  // write-buffer drain horizon

  Tick barrier_arrival_ = 0;

  StatScope stats_;  // "core." counters
  StatId sid_insts_;
  StatId sid_computes_;
  StatId sid_branches_;
  StatId sid_mispredicts_;
  StatId sid_loads_;
  StatId sid_stores_;
  StatId sid_atomics_;
  StatId sid_offloaded_atomics_;
  StatId sid_atomic_incore_ticks_;
  StatId sid_atomic_incache_ticks_;
  StatId sid_atomic_dep_ticks_;
  StatId sid_badspec_ticks_;
  StatId sid_frontend_ticks_;
};

}  // namespace graphpim::cpu

#endif  // GRAPHPIM_CPU_CORE_H_
