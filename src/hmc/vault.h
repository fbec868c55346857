// Vault model: a vault controller, its DRAM banks, and its PIM FU pool.
//
// Each of the cube's 32 vaults owns 16 DRAM banks (512 total, Table IV) with
// open-row timing, and a pool of PIM functional units that execute HMC
// atomics in the logic layer. Per the HMC 2.0 specification the bank is
// locked for the full duration of an atomic read-modify-write: no other
// request to that bank can be serviced until the RMW completes.
//
// Timing uses ready-time reservations (see DESIGN.md): an access at time t
// to a busy resource starts when the resource frees.
#ifndef GRAPHPIM_HMC_VAULT_H_
#define GRAPHPIM_HMC_VAULT_H_

#include <cstdint>
#include <vector>

#include "common/slot_pool.h"
#include "common/span.h"
#include "common/stats.h"
#include "common/types.h"
#include "hmc/atomic.h"
#include "hmc/config.h"
#include "hmc/throttle.h"

namespace graphpim::hmc {

class Vault {
 public:
  // `stats` may be null (no stat collection); it is not owned. Counter
  // names are interned once here; accesses update by StatId. `spans` (may
  // be null) is the transaction flight recorder; `track` names this
  // vault's row in span stamps ((cube_id << 8) | vault index).
  Vault(const HmcParams& params, StatRegistry* stats,
        trace::SpanRecorder* spans = nullptr, std::uint32_t track = 0);

  struct AccessResult {
    Tick data_ready = 0;  // when read data / atomic response is available
    Tick done = 0;        // when the bank is fully free again
    bool row_hit = false;
  };

  // A read of any size within one bank row. `span` is the flight-recorder
  // handle of the enclosing sampled request (invalid = unsampled).
  AccessResult Read(Addr addr, Tick arrival,
                    trace::SpanRef span = trace::SpanRef());

  // A write of any size within one bank row.
  AccessResult Write(Addr addr, Tick arrival,
                     trace::SpanRef span = trace::SpanRef());

  // An atomic RMW: bank read, FU execute, bank write with the bank locked
  // throughout. data_ready is when the response value exists.
  AccessResult Atomic(Addr addr, AtomicOp op, Tick arrival,
                      trace::SpanRef span = trace::SpanRef());

  // Closes every row and idles the banks, the FUs and the controller, as
  // in a freshly constructed vault. Counters are the registry's.
  void Reset();

  // Total busy time accumulated by the FU pools (for the energy model).
  Tick int_fu_busy() const { return int_fu_busy_; }
  Tick fp_fu_busy() const { return fp_fu_busy_; }

  // Telemetry gauges (DESIGN.md §17): banks still reserved past `now` —
  // the vault's instantaneous queue depth under ready-time reservations.
  std::uint32_t BusyBanksAt(Tick now) const {
    std::uint32_t n = 0;
    for (const Bank& b : banks_) {
      if (b.ready > now) ++n;
    }
    return n;
  }

  // Latest bank reservation; BusyBanksAt's companion for backlog depth.
  Tick MaxBankReady() const {
    Tick m = 0;
    for (const Bank& b : banks_) {
      if (b.ready > m) m = b.ready;
    }
    return m;
  }

 private:
  struct Bank {
    std::int64_t open_row = -1;
    Tick ready = 0;          // earliest next access start
    Tick activate_tick = 0;  // when the open row was activated (tRAS)
    // Largest multiple of tREFI at or below this bank's last access time.
    // Per-bank access times are monotone (ready only moves forward), so the
    // refresh phase is the distance from this cached base — no modulo.
    Tick refresh_base = 0;
  };

  Bank& BankFor(Addr addr);
  std::int64_t RowOf(Addr addr) const;

  // Advances the bank state machine for one column access; returns the tick
  // at which data is at the bank I/O. Sets *row_hit.
  Tick BankAccess(Bank& bank, std::int64_t row, Tick start, bool* row_hit);

  // Span stage stamp; single never-taken branch when tracing is off.
  void Stamp(trace::SpanRef span, trace::SpanStage stage, Tick enter,
             Tick exit) {
    if (spans_ != nullptr) spans_->Stage(span, stage, enter, exit, track_);
  }

  const HmcParams& params_;
  trace::SpanRecorder* spans_;  // may be null (tracing off)
  std::uint32_t track_;
  StatScope stats_;
  StatId sid_row_hits_;
  StatId sid_row_misses_;
  StatId sid_refresh_stalls_;
  StatId sid_fu_int_ops_;
  StatId sid_fu_fp_ops_;
  StatId sid_bank_locked_ticks_;
  std::vector<Bank> banks_;
  // Shift/mask forms of the bank geometry: row_bytes and banks_per_vault
  // are powers of two (checked here and by SimConfig::Validate).
  std::uint32_t row_shift_ = 0;
  std::uint32_t bank_shift_ = 0;
  std::uint64_t bank_mask_ = 0;
  SlotPool int_fus_;
  SlotPool fp_fus_;
  EpochThrottle ctrl_;
  Tick int_fu_busy_ = 0;
  Tick fp_fu_busy_ = 0;
};

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_VAULT_H_
