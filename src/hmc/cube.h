// The Hybrid Memory Cube: links + crossbar + vaults + PIM atomics.
//
// This is the memory device of every machine configuration: the baseline
// uses it as plain main memory (64-byte line reads/writes), GraphPIM
// additionally sends it HMC atomic commands and exact-size uncacheable
// accesses. Addresses interleave across vaults at 256-byte granularity.
#ifndef GRAPHPIM_HMC_CUBE_H_
#define GRAPHPIM_HMC_CUBE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/span.h"
#include "common/stats.h"
#include "common/types.h"
#include "hmc/atomic.h"
#include "hmc/config.h"
#include "hmc/link.h"
#include "hmc/vault.h"

namespace graphpim::hmc {

// Timing (and optionally functional) outcome of one HMC transaction.
struct Completion {
  Tick response_at_host = 0;  // when the response packet reaches the host
  Tick internal_done = 0;     // when the cube's internal resources are free
  std::uint32_t req_flits = 0;
  std::uint32_t resp_flits = 0;
  bool row_hit = false;
  // Fault injection only: the response is unusable — link retries were
  // exhausted or the response was poisoned internally. Timing fields are
  // still valid (the poisoned packet did arrive); the host side decides
  // whether to re-issue.
  bool poisoned = false;
  AtomicOutcome outcome;      // valid only in functional mode, for atomics
};

class HmcCube {
 public:
  // `spans` (may be null) is the transaction flight recorder; `cube_id`
  // names this cube's track in span stamps and trace export.
  explicit HmcCube(const HmcParams& params, StatRegistry* stats = nullptr,
                   trace::SpanRecorder* spans = nullptr,
                   std::uint32_t cube_id = 0);

  HmcCube(const HmcCube&) = delete;
  HmcCube& operator=(const HmcCube&) = delete;

  // A read of `size` bytes arriving at the host-side link interface at
  // `when`. Size may be a full cache line (64) or an exact uncacheable size.
  // `span` is the flight-recorder handle of the enclosing sampled request.
  Completion Read(Addr addr, std::uint32_t size, Tick when,
                  trace::SpanRef span = trace::SpanRef());

  // A write of `size` bytes.
  Completion Write(Addr addr, std::uint32_t size, Tick when,
                   trace::SpanRef span = trace::SpanRef());

  // An HMC atomic command. `operand` is the 16-byte packet immediate;
  // `want_return` selects the response form (posted ops pass false).
  Completion Atomic(Addr addr, AtomicOp op, const Value16& operand,
                    bool want_return, Tick when,
                    trace::SpanRef span = trace::SpanRef());

  // Restores the cold state of a freshly built cube: idle links and
  // vaults, a fault plan back at its first decision of every stream, and
  // an empty backing store. Functional mode is a setting and stays;
  // counters are the registry's.
  void Reset();

  // Functional mode: when enabled, Atomic() reads/modifies/writes the
  // sparse backing store so callers can observe data values. Replay-only
  // simulations leave it off.
  void set_functional(bool on) { functional_ = on; }
  bool functional() const { return functional_; }

  // Direct functional access to the backing store (16-byte aligned granule).
  Value16 FunctionalRead(Addr addr) const;
  void FunctionalWrite(Addr addr, const Value16& v);

  // Address mapping helpers (exposed for tests and benches).
  std::uint32_t VaultOf(Addr addr) const;
  Addr VaultLocalAddr(Addr addr) const;

  const HmcParams& params() const { return params_; }

  // Aggregate FU busy time across vaults (energy model input).
  Tick TotalIntFuBusy() const;
  Tick TotalFpFuBusy() const;
  Tick TotalLinkBusy() const;

  // Telemetry gauges (DESIGN.md §17), aggregated across this cube's vaults.
  std::uint32_t BusyBanksAt(Tick now) const;
  Tick MaxBankReady() const;

 private:
  // Picks the link with the earliest-available TX lane. With fault
  // injection active the retry path loads both lanes, so selection also
  // weighs the RX backlog; fault-free selection is TX-only (unchanged from
  // the ideal model, preserving bit-identical results at zero knobs).
  std::uint32_t PickLink() const;

  // Common front half: serialize request on a link, cross to the vault.
  // Returns arrival tick at the vault and sets *link_idx.
  Tick RequestToVault(std::uint32_t flits, Tick when, std::uint32_t* link_idx,
                      bool* poisoned);

  // Common back half: serialize the response back to the host.
  Tick ResponseToHost(std::uint32_t flits, Tick ready, std::uint32_t link_idx,
                      bool* poisoned);

  // Serializes one packet on a lane with the HMC 2.0 retry protocol: a
  // packet whose CRC fails at RX is replayed from the retry buffer after
  // `fault.retry_latency`; after `fault.max_retries` failed replays the
  // transaction escalates to a poisoned response. Returns the tick the
  // last good (or given-up) serialization finished.
  Tick TransferWithRetry(std::uint32_t link_idx, bool tx_lane,
                         std::uint32_t flits, Tick when, bool* poisoned);

  // Applies an injected vault busy-stall to an arrival tick.
  Tick MaybeStallVault(Tick at_vault);

  // Span stage stamp; single never-taken branch when tracing is off.
  void Stamp(trace::SpanRef span, trace::SpanStage stage, Tick enter,
             Tick exit) {
    if (spans_ != nullptr) spans_->Stage(span, stage, enter, exit, cube_id_);
  }

  HmcParams params_;
  trace::SpanRecorder* spans_;  // may be null (tracing off)
  std::uint32_t cube_id_;
  StatScope stats_;        // "hmc." counters
  StatScope fault_stats_;  // "fault." counters
  StatId sid_reads_;
  StatId sid_writes_;
  StatId sid_atomics_;
  StatId sid_req_flits_;
  StatId sid_resp_flits_;
  StatId sid_dbg_req_path_ns_;
  StatId sid_dbg_vault_ns_;
  StatId sid_dbg_resp_path_ns_;
  StatId sid_dbg_a_req_ns_;
  StatId sid_dbg_a_vault_ns_;
  StatId sid_dbg_a_done_ns_;
  StatId sid_link_crc_errors_;
  StatId sid_retry_exhausted_;
  StatId sid_link_retries_;
  StatId sid_retry_flits_;
  StatId sid_retry_ns_;
  StatId sid_vault_stalls_;
  StatId sid_vault_stall_ns_;
  StatId sid_poisoned_ops_;
  StatId sid_poisoned_atomics_;
  std::vector<Link> links_;
  std::vector<std::unique_ptr<Vault>> vaults_;
  fault::FaultPlan fault_plan_;
  bool functional_ = false;
  std::unordered_map<Addr, Value16> store_;
};

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_CUBE_H_
