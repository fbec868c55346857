#include "hmc/vault.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace graphpim::hmc {

Vault::Vault(const HmcParams& params, StatRegistry* stats,
             trace::SpanRecorder* spans, std::uint32_t track)
    : params_(params),
      spans_(spans),
      track_(track),
      stats_(stats, "hmc"),
      sid_row_hits_(stats_.Counter("row_hits")),
      sid_row_misses_(stats_.Counter("row_misses")),
      sid_refresh_stalls_(stats_.Counter("refresh_stalls")),
      sid_fu_int_ops_(stats_.Counter("fu_int_ops")),
      sid_fu_fp_ops_(stats_.Counter("fu_fp_ops")),
      sid_bank_locked_ticks_(stats_.Counter("bank_locked_ticks")),
      banks_(params.banks_per_vault),
      int_fus_(std::max<std::uint32_t>(1, params.fus_per_vault)),
      fp_fus_(std::max<std::uint32_t>(1, params.fp_fus_per_vault)),
      ctrl_(25 * kTicksPerNs, std::max<Tick>(1, params.ctrl_overhead)) {
  GP_CHECK(std::has_single_bit(params.row_bytes),
           "row size must be a power of two");
  GP_CHECK(std::has_single_bit(params.banks_per_vault),
           "bank count must be a power of two");
  row_shift_ = static_cast<std::uint32_t>(std::countr_zero(params.row_bytes));
  bank_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(params.banks_per_vault));
  bank_mask_ = params.banks_per_vault - 1;
}

void Vault::Reset() {
  std::fill(banks_.begin(), banks_.end(), Bank{});
  int_fus_.Reset();
  fp_fus_.Reset();
  ctrl_.Reset();
  int_fu_busy_ = 0;
  fp_fu_busy_ = 0;
}

Vault::Bank& Vault::BankFor(Addr addr) {
  // The bank index within the vault: bits above the row offset, below the
  // row number. The cube has already stripped vault interleaving.
  return banks_[(addr >> row_shift_) & bank_mask_];
}

std::int64_t Vault::RowOf(Addr addr) const {
  return static_cast<std::int64_t>(addr >> (row_shift_ + bank_shift_));
}

Tick Vault::BankAccess(Bank& bank, std::int64_t row, Tick start, bool* row_hit) {
  *row_hit = false;
  Tick t = std::max(start, bank.ready);
  // Periodic refresh: the window [k*tREFI - tRFC, k*tREFI) blocks the
  // bank; accesses landing inside wait for the boundary. The interval base
  // is cached per bank (times are monotone per bank); it usually advances
  // zero or one interval per access, so the slow division path is rare.
  if (params_.t_refi != 0 && params_.t_rfc != 0) {
    Tick base = bank.refresh_base;
    if (t - base >= 16 * params_.t_refi) {
      base = (t / params_.t_refi) * params_.t_refi;
    } else {
      while (t - base >= params_.t_refi) base += params_.t_refi;
    }
    bank.refresh_base = base;
    Tick phase = t - base;
    if (phase >= params_.t_refi - params_.t_rfc) {
      stats_.Inc(sid_refresh_stalls_);
      t += params_.t_refi - phase;
    }
  }
  if (params_.closed_page) {
    // Auto-precharge after every access: uniform activate+access latency,
    // precharge overlaps the idle gap.
    Tick data = t + params_.t_rcd + params_.t_cl + params_.t_burst;
    bank.open_row = -1;
    bank.activate_tick = t;
    bank.ready = data + params_.t_rp;
    return data;
  }
  if (bank.open_row == row) {
    *row_hit = true;
    return t + params_.t_cl + params_.t_burst;
  }
  if (bank.open_row < 0) {
    // Closed bank: activate then access.
    bank.open_row = row;
    bank.activate_tick = t;
    return t + params_.t_rcd + params_.t_cl + params_.t_burst;
  }
  // Row conflict: precharge (respecting tRAS), activate, access.
  Tick pre = std::max(t, bank.activate_tick + params_.t_ras);
  Tick act = pre + params_.t_rp;
  bank.open_row = row;
  bank.activate_tick = act;
  return act + params_.t_rcd + params_.t_cl + params_.t_burst;
}

Vault::AccessResult Vault::Read(Addr addr, Tick arrival, trace::SpanRef span) {
  Tick start = ctrl_.Reserve(1, arrival);
  Bank& bank = BankFor(addr);
  AccessResult r;
  r.data_ready = BankAccess(bank, RowOf(addr), start, &r.row_hit);
  r.done = r.data_ready;
  bank.ready = r.done;
  stats_.Inc(r.row_hit ? sid_row_hits_ : sid_row_misses_);
  Stamp(span, trace::SpanStage::kVaultQueue, arrival, start);
  Stamp(span, trace::SpanStage::kBankAccess, start, r.data_ready);
  return r;
}

Vault::AccessResult Vault::Write(Addr addr, Tick arrival, trace::SpanRef span) {
  Tick start = ctrl_.Reserve(1, arrival);
  Bank& bank = BankFor(addr);
  AccessResult r;
  r.data_ready = BankAccess(bank, RowOf(addr), start, &r.row_hit);
  r.done = r.data_ready + params_.t_wr;
  bank.ready = r.done;
  stats_.Inc(r.row_hit ? sid_row_hits_ : sid_row_misses_);
  Stamp(span, trace::SpanStage::kVaultQueue, arrival, start);
  Stamp(span, trace::SpanStage::kBankAccess, start, r.data_ready);
  return r;
}

Vault::AccessResult Vault::Atomic(Addr addr, AtomicOp op, Tick arrival,
                                  trace::SpanRef span) {
  Tick start = ctrl_.Reserve(1, arrival);
  Bank& bank = BankFor(addr);

  AccessResult r;
  Tick read_ready = BankAccess(bank, RowOf(addr), start, &r.row_hit);

  // Pick the earliest-available functional unit of the right kind.
  const bool fp = IsFpOp(op);
  GP_CHECK(!fp || params_.enable_fp_atomics,
           "FP atomic reached the vault with the FP extension disabled");
  SlotPool& fus = fp ? fp_fus_ : int_fus_;
  Tick fu_lat = fp ? params_.fu_fp_latency : params_.fu_int_latency;
  Tick fu_done = fus.Acquire(read_ready) + fu_lat;
  fus.Release(fu_done);
  (fp ? fp_fu_busy_ : int_fu_busy_) += fu_lat;

  // Write the result back; the bank stays locked for the whole RMW.
  r.data_ready = fu_done;
  r.done = fu_done + params_.t_wr;
  bank.ready = r.done;

  stats_.Inc(r.row_hit ? sid_row_hits_ : sid_row_misses_);
  stats_.Inc(fp ? sid_fu_fp_ops_ : sid_fu_int_ops_);
  stats_.Add(sid_bank_locked_ticks_, static_cast<double>(r.done - start));
  // The three stages tile [arrival, data_ready] exactly, so per-stage sums
  // reconcile with hmc.dbg_a_vault_ns by construction (the t_wr writeback
  // after fu_done is off the response path and is not a latency stage).
  Stamp(span, trace::SpanStage::kVaultQueue, arrival, start);
  Stamp(span, trace::SpanStage::kBankAccess, start, read_ready);
  Stamp(span, trace::SpanStage::kAtomicFu, read_ready, fu_done);
  return r;
}

}  // namespace graphpim::hmc
