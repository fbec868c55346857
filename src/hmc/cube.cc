#include "hmc/cube.h"

#include <bit>

#include <algorithm>

#include "common/log.h"
#include "hmc/flit.h"

namespace graphpim::hmc {

namespace {

// Vault interleaving granularity: HMC low-order address interleave at
// cache-block size maximizes spread of both streams and scattered accesses
// across the 32 vaults.
constexpr std::uint64_t kVaultInterleave = 64;

// Bits serialized per FLIT (16 bytes); the CRC decision covers the whole
// packet's transferred bits.
constexpr std::uint64_t kBitsPerFlit = 128;

}  // namespace

HmcCube::HmcCube(const HmcParams& params, StatRegistry* stats,
                 trace::SpanRecorder* spans, std::uint32_t cube_id)
    : params_(params),
      spans_(spans),
      cube_id_(cube_id),
      stats_(stats, "hmc"),
      fault_stats_(stats, "fault"),
      sid_reads_(stats_.Counter("reads")),
      sid_writes_(stats_.Counter("writes")),
      sid_atomics_(stats_.Counter("atomics")),
      sid_req_flits_(stats_.Counter("req_flits")),
      sid_resp_flits_(stats_.Counter("resp_flits")),
      sid_dbg_req_path_ns_(stats_.Counter("dbg_req_path_ns")),
      sid_dbg_vault_ns_(stats_.Counter("dbg_vault_ns")),
      sid_dbg_resp_path_ns_(stats_.Counter("dbg_resp_path_ns")),
      sid_dbg_a_req_ns_(stats_.Counter("dbg_a_req_ns")),
      sid_dbg_a_vault_ns_(stats_.Counter("dbg_a_vault_ns")),
      sid_dbg_a_done_ns_(stats_.Counter("dbg_a_done_ns")),
      sid_link_crc_errors_(fault_stats_.Counter("link_crc_errors")),
      sid_retry_exhausted_(fault_stats_.Counter("retry_exhausted")),
      sid_link_retries_(fault_stats_.Counter("link_retries")),
      sid_retry_flits_(fault_stats_.Counter("retry_flits")),
      sid_retry_ns_(fault_stats_.Counter("retry_ns")),
      sid_vault_stalls_(fault_stats_.Counter("vault_stalls")),
      sid_vault_stall_ns_(fault_stats_.Counter("vault_stall_ns")),
      sid_poisoned_ops_(fault_stats_.Counter("poisoned_ops")),
      sid_poisoned_atomics_(fault_stats_.Counter("poisoned_atomics")),
      fault_plan_(params.fault) {
  GP_CHECK(params_.num_links > 0);
  GP_CHECK(std::has_single_bit(params_.num_vaults),
           "vault count must be a power of two");
  links_.reserve(params_.num_links);
  for (std::uint32_t i = 0; i < params_.num_links; ++i) {
    links_.emplace_back(params_.FlitTime());
  }
  vaults_.reserve(params_.num_vaults);
  for (std::uint32_t i = 0; i < params_.num_vaults; ++i) {
    // Vault track id: cube in the high bits, vault index below — unique
    // across the whole network for trace-export rows.
    vaults_.push_back(std::make_unique<Vault>(params_, stats_.registry(),
                                              spans_, (cube_id_ << 8) | i));
  }
}

void HmcCube::Reset() {
  for (Link& link : links_) link.Reset();
  for (auto& vault : vaults_) vault->Reset();
  fault_plan_ = fault::FaultPlan(params_.fault);
  store_.clear();
}

std::uint32_t HmcCube::VaultOf(Addr addr) const {
  return static_cast<std::uint32_t>((addr / kVaultInterleave) &
                                    (params_.num_vaults - 1));
}

Addr HmcCube::VaultLocalAddr(Addr addr) const {
  // Strip the vault-interleave bits so the vault's bank/row decoding uses
  // independent address bits (512 distinct banks across the cube).
  const Addr block =
      (addr / kVaultInterleave) >> std::countr_zero(params_.num_vaults);
  return block * kVaultInterleave + (addr % kVaultInterleave);
}

std::uint32_t HmcCube::PickLink() const {
  const bool weigh_rx = fault_plan_.enabled();
  auto backlog = [&](const Link& l) {
    return weigh_rx ? l.tx_ready() + l.rx_ready() : l.tx_ready();
  };
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < links_.size(); ++i) {
    if (backlog(links_[i]) < backlog(links_[best])) best = i;
  }
  return best;
}

Tick HmcCube::TransferWithRetry(std::uint32_t link_idx, bool tx_lane,
                                std::uint32_t flits, Tick when, bool* poisoned) {
  Link& link = links_[link_idx];
  Tick done = tx_lane ? link.ReserveTx(flits, when) : link.ReserveRx(flits, when);
  if (params_.fault.link_ber <= 0.0) return done;

  const Tick clean_done = done;
  const std::uint64_t bits = static_cast<std::uint64_t>(flits) * kBitsPerFlit;
  std::uint32_t attempt = 0;
  while (fault_plan_.CorruptPacket(bits)) {
    fault_stats_.Inc(sid_link_crc_errors_);
    if (attempt >= params_.fault.max_retries) {
      // Retry budget exhausted: give up and deliver a poisoned response.
      *poisoned = true;
      fault_stats_.Inc(sid_retry_exhausted_);
      break;
    }
    ++attempt;
    // Retry-buffer replay: the RX side signals the error back (folded into
    // retry_latency), then the packet reserializes on the same lane.
    Tick replay_at = done + params_.fault.retry_latency;
    done = tx_lane ? link.ReserveTx(flits, replay_at)
                   : link.ReserveRx(flits, replay_at);
    fault_stats_.Inc(sid_link_retries_);
    fault_stats_.Add(sid_retry_flits_, flits);
  }
  if (done > clean_done) {
    fault_stats_.Add(sid_retry_ns_, TicksToNs(done - clean_done));
  }
  return done;
}

Tick HmcCube::MaybeStallVault(Tick at_vault) {
  if (params_.fault.vault_stall_ppm == 0 || !fault_plan_.VaultStall()) {
    return at_vault;
  }
  fault_stats_.Inc(sid_vault_stalls_);
  fault_stats_.Add(sid_vault_stall_ns_, TicksToNs(params_.fault.vault_stall_ticks));
  return at_vault + params_.fault.vault_stall_ticks;
}

Tick HmcCube::RequestToVault(std::uint32_t flits, Tick when, std::uint32_t* link_idx,
                             bool* poisoned) {
  *link_idx = PickLink();
  Tick serialized = TransferWithRetry(*link_idx, /*tx_lane=*/true, flits, when,
                                      poisoned);
  Tick at_vault = serialized + params_.link_latency + params_.xbar_latency;
  return MaybeStallVault(at_vault);
}

Tick HmcCube::ResponseToHost(std::uint32_t flits, Tick ready, std::uint32_t link_idx,
                             bool* poisoned) {
  Tick at_link = ready + params_.xbar_latency;
  Tick serialized = TransferWithRetry(link_idx, /*tx_lane=*/false, flits, at_link,
                                      poisoned);
  return serialized + params_.link_latency;
}

Completion HmcCube::Read(Addr addr, std::uint32_t size, Tick when,
                         trace::SpanRef span) {
  Completion c;
  c.req_flits = ReadRequestFlits(size);
  c.resp_flits = ReadResponseFlits(size);
  std::uint32_t link = 0;
  Tick at_vault = RequestToVault(c.req_flits, when, &link, &c.poisoned);
  Stamp(span, trace::SpanStage::kCubeLink, when, at_vault);
  Vault::AccessResult r =
      vaults_[VaultOf(addr)]->Read(VaultLocalAddr(addr), at_vault, span);
  c.row_hit = r.row_hit;
  c.internal_done = r.done;
  c.response_at_host = ResponseToHost(c.resp_flits, r.data_ready, link, &c.poisoned);
  Stamp(span, trace::SpanStage::kResponse, r.data_ready, c.response_at_host);
  if (c.poisoned) fault_stats_.Inc(sid_poisoned_ops_);
  stats_.Inc(sid_reads_);
  stats_.Add(sid_dbg_req_path_ns_, TicksToNs(at_vault - when));
  stats_.Add(sid_dbg_vault_ns_, TicksToNs(r.data_ready - at_vault));
  stats_.Add(sid_dbg_resp_path_ns_, TicksToNs(c.response_at_host - r.data_ready));
  stats_.Add(sid_req_flits_, c.req_flits);
  stats_.Add(sid_resp_flits_, c.resp_flits);
  return c;
}

Completion HmcCube::Write(Addr addr, std::uint32_t size, Tick when,
                          trace::SpanRef span) {
  Completion c;
  c.req_flits = WriteRequestFlits(size);
  c.resp_flits = WriteResponseFlits(size);
  std::uint32_t link = 0;
  Tick at_vault = RequestToVault(c.req_flits, when, &link, &c.poisoned);
  Stamp(span, trace::SpanStage::kCubeLink, when, at_vault);
  Vault::AccessResult r =
      vaults_[VaultOf(addr)]->Write(VaultLocalAddr(addr), at_vault, span);
  c.row_hit = r.row_hit;
  c.internal_done = r.done;
  c.response_at_host = ResponseToHost(c.resp_flits, r.data_ready, link, &c.poisoned);
  Stamp(span, trace::SpanStage::kResponse, r.data_ready, c.response_at_host);
  if (c.poisoned) fault_stats_.Inc(sid_poisoned_ops_);
  stats_.Inc(sid_writes_);
  stats_.Add(sid_req_flits_, c.req_flits);
  stats_.Add(sid_resp_flits_, c.resp_flits);
  return c;
}

Completion HmcCube::Atomic(Addr addr, AtomicOp op, const Value16& operand,
                           bool want_return, Tick when, trace::SpanRef span) {
  GP_CHECK(!IsFpOp(op) || params_.enable_fp_atomics,
           "FP atomic issued but the FP extension is disabled");
  Completion c;
  c.req_flits = AtomicRequestFlits(op);
  c.resp_flits = AtomicResponseFlits(op, want_return);
  std::uint32_t link = 0;
  Tick at_vault = RequestToVault(c.req_flits, when, &link, &c.poisoned);
  Stamp(span, trace::SpanStage::kCubeLink, when, at_vault);
  Vault::AccessResult r =
      vaults_[VaultOf(addr)]->Atomic(VaultLocalAddr(addr), op, at_vault, span);
  c.row_hit = r.row_hit;
  c.internal_done = r.done;
  c.response_at_host = ResponseToHost(c.resp_flits, r.data_ready, link, &c.poisoned);
  Stamp(span, trace::SpanStage::kResponse, r.data_ready, c.response_at_host);
  if (params_.fault.poison_ppm > 0 && fault_plan_.PoisonAtomic()) {
    // Internal ECC escalation: the atomic executed but its response value
    // is untrustworthy.
    c.poisoned = true;
    fault_stats_.Inc(sid_poisoned_atomics_);
  }
  if (c.poisoned) fault_stats_.Inc(sid_poisoned_ops_);

  if (functional_) {
    Addr granule = addr & ~static_cast<Addr>(15);
    Value16 mem = FunctionalRead(granule);
    c.outcome = ExecuteAtomic(op, mem, operand);
    if (c.outcome.wrote) FunctionalWrite(granule, c.outcome.new_value);
  }

  stats_.Inc(sid_atomics_);
  stats_.Add(sid_dbg_a_req_ns_, TicksToNs(at_vault - when));
  stats_.Add(sid_dbg_a_vault_ns_, TicksToNs(r.data_ready - at_vault));
  stats_.Add(sid_dbg_a_done_ns_, TicksToNs(r.done - at_vault));
  stats_.Add(sid_req_flits_, c.req_flits);
  stats_.Add(sid_resp_flits_, c.resp_flits);
  return c;
}

Value16 HmcCube::FunctionalRead(Addr addr) const {
  Addr granule = addr & ~static_cast<Addr>(15);
  auto it = store_.find(granule);
  return it == store_.end() ? Value16{} : it->second;
}

void HmcCube::FunctionalWrite(Addr addr, const Value16& v) {
  Addr granule = addr & ~static_cast<Addr>(15);
  store_[granule] = v;
}

Tick HmcCube::TotalIntFuBusy() const {
  Tick sum = 0;
  for (const auto& v : vaults_) sum += v->int_fu_busy();
  return sum;
}

Tick HmcCube::TotalFpFuBusy() const {
  Tick sum = 0;
  for (const auto& v : vaults_) sum += v->fp_fu_busy();
  return sum;
}

Tick HmcCube::TotalLinkBusy() const {
  Tick sum = 0;
  for (const auto& l : links_) sum += l.busy_ticks();
  return sum;
}

std::uint32_t HmcCube::BusyBanksAt(Tick now) const {
  std::uint32_t n = 0;
  for (const auto& v : vaults_) n += v->BusyBanksAt(now);
  return n;
}

Tick HmcCube::MaxBankReady() const {
  Tick m = 0;
  for (const auto& v : vaults_) m = std::max(m, v->MaxBankReady());
  return m;
}

}  // namespace graphpim::hmc
