// The memory system of one machine configuration: routes every memory
// micro-op according to the active offloading policy.
//
//   Baseline   — everything through the cache hierarchy; host atomics are
//                locked RMWs (serializing).
//   U-PEI      — idealized PEI [14]: PMR atomics that hit in the cache are
//                executed host-side at the hit level (no freeze, free
//                coherence); misses pay the cache walk, then offload.
//                Non-atomic PMR data stays cacheable.
//   GraphPIM   — the POU offloads PMR atomics directly to the HMC; every
//                PMR access bypasses the caches (UC semantics). Atomics
//                whose operation the HMC cannot execute (FP without the
//                Section III-C extension) fall back to the host path.
//   UC-NoPIM   — ablation (Section III-B discussion): UC property without
//                PIM-atomics; host atomics degrade to bus locking.
#ifndef GRAPHPIM_CORE_SYSTEM_H_
#define GRAPHPIM_CORE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/slot_pool.h"
#include "common/span.h"
#include "common/stats.h"
#include "core/sim_config.h"
#include "cpu/memory_interface.h"
#include "cpu/pou.h"
#include "hmc/topology.h"
#include "mem/hierarchy.h"
#include "pmem/pmem.h"

namespace graphpim::core {

class MemorySystem : public cpu::MemoryInterface {
 public:
  // `spans` (may be null) is the transaction flight recorder. The memory
  // system is the sampling point: every memory micro-op gets a value-
  // derived request id here ((core << 48) | per-core ordinal — identical
  // in every mode, since each micro-op enters exactly once per run), and
  // sampled requests carry a SpanRef down every path they take.
  MemorySystem(const SimConfig& cfg, Addr pmr_base, Addr pmr_end,
               trace::SpanRecorder* spans = nullptr);

  cpu::MemOutcome Access(int core, const cpu::MicroOp& op, Tick when) override;

  // Restores the cold state of a freshly built memory system: zeroed
  // counters (the registry keeps its names, so every StatId stays valid),
  // empty caches, idle cubes and links, fresh fault streams, an empty
  // persist domain and idle UC slots. The flight recorder is its owner's
  // to reset.
  void Reset();

  StatRegistry& stats() { return stats_; }
  const StatRegistry& stats() const { return stats_; }
  const hmc::HmcNetwork& network() const { return *network_; }
  const mem::CacheHierarchy& hierarchy() const { return *hierarchy_; }
  const cpu::PimOffloadUnit& pou() const { return pou_; }

  // The persistent-PMR timing layer; nullptr unless cfg.pmem.enable.
  pmem::PersistDomain* persist_domain() { return pmem_.get(); }

  // Telemetry gauges (DESIGN.md §17): appends the instantaneous machine-
  // state samples for window [win_start, win_end) — POU in-flight ops,
  // vault-bank backlog, and link occupancy — in a fixed emission order.
  // Stateful (the occupancy gauge differentiates cumulative link busy time
  // across calls), so call it once per window, in window order; the
  // telemetry sampler is the only caller.
  void SampleTelemetryGauges(Tick win_start, Tick win_end,
                             std::vector<std::pair<std::string, double>>* out);

 private:
  // Mode dispatch (the old Access body); `span` is invalid for unsampled
  // requests.
  cpu::MemOutcome Route(int core, const cpu::MicroOp& op, Tick when,
                        trace::SpanRef span);

  cpu::MemOutcome HostPath(int core, const cpu::MicroOp& op, Tick when,
                           trace::SpanRef span);
  cpu::MemOutcome BypassPath(int core, const cpu::MicroOp& op, Tick when,
                             trace::SpanRef span);
  cpu::MemOutcome UPeiAtomic(int core, const cpu::MicroOp& op, Tick when,
                             trace::SpanRef span);
  cpu::MemOutcome BusLockAtomic(int core, const cpu::MicroOp& op, Tick when,
                                trace::SpanRef span);

  // Sends an uncacheable load or an offloaded atomic to the cube network at
  // `when`. A poisoned response (fault injection) is re-issued once, at the
  // poisoned packet's arrival tick; a second poisoning is accepted as-is —
  // real drivers surface it as an MCE rather than retrying forever.
  hmc::Completion IssueRecovering(const cpu::MicroOp& op, Tick when,
                                  trace::SpanRef span);

  // kFlush/kFence handling. These never enter the span path (span ids stay
  // mode- and pmem-invariant for loads/stores/atomics) and are free no-ops
  // when the persist domain is off.
  cpu::MemOutcome PersistOp(int core, const cpu::MicroOp& op, Tick when);

  // Span stage stamp; single never-taken branch when tracing is off.
  void Stamp(trace::SpanRef span, trace::SpanStage stage, Tick enter,
             Tick exit, std::uint32_t detail = 0) {
    if (spans_ != nullptr) spans_->Stage(span, stage, enter, exit, detail);
  }

  // True if the HMC can execute this atomic op under the current config.
  bool HmcSupports(const cpu::MicroOp& op) const;

  // Hybrid placement: true if this PMR page resides in the HMC (always
  // true unless pmr_hmc_fraction < 1).
  bool PageInHmc(Addr addr) const;

  SimConfig cfg_;
  trace::SpanRecorder* spans_;  // may be null (tracing off)
  // Per-core memory-request ordinals for span request ids. Maintained only
  // when tracing is on.
  std::vector<std::uint64_t> span_seq_;
  StatRegistry stats_;
  StatId sid_poison_reissues_;
  StatId sid_poison_unrecovered_;
  StatId sid_uc_slot_wait_ns_;
  StatId sid_uc_service_ns_;
  StatId sid_uc_reads_;
  StatId sid_uc_writes_;
  StatId sid_dbg_atomic_hold_ns_;
  StatId sid_offloaded_atomics_;
  StatId sid_bus_lock_atomics_;
  StatId sid_upei_host_hits_;
  StatId sid_upei_offloaded_;
  std::unique_ptr<hmc::HmcNetwork> network_;
  std::unique_ptr<mem::CacheHierarchy> hierarchy_;
  std::unique_ptr<pmem::PersistDomain> pmem_;  // null when pmem.enable=0
  cpu::PimOffloadUnit pou_;  // identical in every core; modeled once
  // Each core holds a bounded number of outstanding uncacheable/offloaded
  // requests (its WC/UC buffer); a request holds its slot until its
  // downstream completion.
  std::vector<SlotPool> uc_slots_;

  // U-PEI locality checks occupy a per-core cache-checking unit; this is
  // the "unnecessary cache checking time" GraphPIM's bypass avoids
  // (Section IV-B1).
  std::vector<Tick> upei_check_ready_;

  // Bus-locked host atomics serialize globally (the whole interconnect is
  // held) — the "huge performance degradation" of Section III-B.
  Tick bus_lock_ready_ = 0;

  // Cumulative link busy time at the previous telemetry cut (the link-
  // occupancy gauge is the windowed derivative of TotalLinkBusy()).
  Tick tele_link_busy_ = 0;
};

}  // namespace graphpim::core

#endif  // GRAPHPIM_CORE_SYSTEM_H_
