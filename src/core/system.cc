#include "core/system.h"

#include <algorithm>

#include "common/log.h"

namespace graphpim::core {

using cpu::MemOutcome;
using cpu::MicroOp;
using cpu::OpType;

MemorySystem::MemorySystem(const SimConfig& cfg, Addr pmr_base, Addr pmr_end,
                           trace::SpanRecorder* spans)
    : cfg_(cfg),
      spans_(spans),
      sid_poison_reissues_(stats_.Intern("pou.poison_reissues")),
      sid_poison_unrecovered_(stats_.Intern("pou.poison_unrecovered")),
      sid_uc_slot_wait_ns_(stats_.Intern("pou.uc_slot_wait_ns")),
      sid_uc_service_ns_(stats_.Intern("pou.uc_service_ns")),
      sid_uc_reads_(stats_.Intern("pou.uc_reads")),
      sid_uc_writes_(stats_.Intern("pou.uc_writes")),
      sid_dbg_atomic_hold_ns_(stats_.Intern("pou.dbg_atomic_hold_ns")),
      sid_offloaded_atomics_(stats_.Intern("pou.offloaded_atomics")),
      sid_bus_lock_atomics_(stats_.Intern("pou.bus_lock_atomics")),
      sid_upei_host_hits_(stats_.Intern("upei.host_hits")),
      sid_upei_offloaded_(stats_.Intern("upei.offloaded")) {
  network_ = std::make_unique<hmc::HmcNetwork>(cfg_.hmc, &stats_, pmr_base,
                                               pmr_end, spans_);
  hierarchy_ = std::make_unique<mem::CacheHierarchy>(
      cfg_.num_cores, cfg_.cache, network_.get(), &stats_, spans_);
  pou_.SetPmr(pmr_base, pmr_end);
  if (cfg_.pmem.enable) {
    pmem_ = std::make_unique<pmem::PersistDomain>(cfg_.pmem, pmr_base, pmr_end,
                                                  &stats_);
  }
  uc_slots_.assign(static_cast<std::size_t>(cfg_.num_cores),
                   SlotPool(static_cast<std::size_t>(cfg_.uc_queue_depth)));
  upei_check_ready_.assign(static_cast<std::size_t>(cfg_.num_cores), 0);
  if (spans_ != nullptr) {
    span_seq_.assign(static_cast<std::size_t>(cfg_.num_cores), 0);
  }
}

void MemorySystem::Reset() {
  // The registry first: the network and the persist domain set their
  // build-time counters again.
  stats_.Reset();
  network_->Reset();
  hierarchy_->Reset();
  if (pmem_ != nullptr) pmem_->Reset();
  for (SlotPool& slots : uc_slots_) slots.Reset();
  std::fill(upei_check_ready_.begin(), upei_check_ready_.end(), 0);
  std::fill(span_seq_.begin(), span_seq_.end(), 0);
  bus_lock_ready_ = 0;
  tele_link_busy_ = 0;
}

bool MemorySystem::HmcSupports(const MicroOp& op) const {
  return !hmc::IsFpOp(op.aop) || cfg_.hmc.enable_fp_atomics;
}

bool MemorySystem::PageInHmc(Addr addr) const {
  if (cfg_.pmr_hmc_fraction >= 1.0) return true;
  // Deterministic page-granular placement hash (4KB pages).
  std::uint64_t page = addr >> 12;
  std::uint64_t h = (page * 2654435761ULL) >> 22;
  return static_cast<double>(h % 1024) < cfg_.pmr_hmc_fraction * 1024.0;
}

MemOutcome MemorySystem::Access(int core, const MicroOp& op, Tick when) {
  // Persist micro-ops take their own path before the span sampling point:
  // they never consume a request ordinal, so load/store/atomic span ids
  // stay identical whether or not a trace carries flushes and fences.
  if (op.type == OpType::kFlush || op.type == OpType::kFence) {
    return PersistOp(core, op, when);
  }
  if (pmem_ != nullptr && op.type == OpType::kStore && pou_.InPmr(op.addr)) {
    pmem_->OnStore(core, op.addr, op.size, when);
  }
  // The sampling point. With tracing off this whole block is one
  // never-taken branch; with tracing on, every memory micro-op draws a
  // value-derived id and the sampled ones record a span.
  if (spans_ == nullptr) return Route(core, op, when, trace::SpanRef());
  const std::uint64_t id = trace::SpanRequestId(
      core, span_seq_[static_cast<std::size_t>(core)]++);
  const char kind = op.type == OpType::kAtomic ? 'A'
                    : op.type == OpType::kStore ? 'W'
                                                : 'R';
  trace::SpanRef span = spans_->Begin(id, core, kind, op.addr, when);
  MemOutcome out = Route(core, op, when, span);
  if (span.valid()) spans_->End(span, out.complete, out.offloaded);
  return out;
}

MemOutcome MemorySystem::PersistOp(int core, const MicroOp& op, Tick when) {
  MemOutcome out;
  out.complete = when;
  out.retire_ready = when;
  if (pmem_ == nullptr) return out;  // pmem.enable=0: zero-latency no-op
  if (op.type == OpType::kFlush) {
    // Posted like a store: the writeback proceeds asynchronously and only a
    // later fence waits for it.
    out.complete = pmem_->OnFlush(core, op.addr, when);
    out.retire_ready = when;
  } else {
    out.complete = pmem_->OnFence(core, when);
    out.retire_ready = out.complete;
  }
  return out;
}

MemOutcome MemorySystem::Route(int core, const MicroOp& op, Tick when,
                               trace::SpanRef span) {
  switch (cfg_.mode) {
    case Mode::kBaseline:
      return HostPath(core, op, when, span);
    case Mode::kUPei:
      if (op.type == OpType::kAtomic && pou_.InPmr(op.addr) && HmcSupports(op)) {
        return UPeiAtomic(core, op, when, span);
      }
      return HostPath(core, op, when, span);
    case Mode::kGraphPim:
      // The POU decision itself is combinational (zero modeled latency);
      // record it as a zero-width marker carrying the chosen route.
      Stamp(span, trace::SpanStage::kPouDecision, when, when,
            static_cast<std::uint32_t>(pou_.Classify(op)));
      if (pou_.BypassesCache(op) && PageInHmc(op.addr)) {
        if (op.type == OpType::kAtomic && !HmcSupports(op)) {
          // Applicability limit (Table III): the host must execute it, and
          // since the PMR is uncacheable this degrades to a bus lock.
          return BusLockAtomic(core, op, when, span);
        }
        return BypassPath(core, op, when, span);
      }
      return HostPath(core, op, when, span);
    case Mode::kUncacheNoPim:
      Stamp(span, trace::SpanStage::kPouDecision, when, when,
            static_cast<std::uint32_t>(pou_.Classify(op)));
      if (pou_.BypassesCache(op)) {
        if (op.type == OpType::kAtomic) {
          return BusLockAtomic(core, op, when, span);
        }
        return BypassPath(core, op, when, span);
      }
      return HostPath(core, op, when, span);
  }
  GP_PANIC("unreachable mode");
}

MemOutcome MemorySystem::HostPath(int core, const MicroOp& op, Tick when,
                                  trace::SpanRef span) {
  mem::AccessType type = mem::AccessType::kRead;
  if (op.type == OpType::kStore) type = mem::AccessType::kWrite;
  if (op.type == OpType::kAtomic) type = mem::AccessType::kAtomicRmw;
  mem::AccessResult r =
      hierarchy_->Access(core, type, op.addr, when, op.comp, span);
  MemOutcome out;
  out.complete = r.complete;
  out.retire_ready = r.complete;
  out.serializing = op.type == OpType::kAtomic;
  out.check_ticks = r.check_ticks;
  out.offloaded = false;
  out.issue_stall_until = r.issue_stall;
  return out;
}

hmc::Completion MemorySystem::IssueRecovering(const MicroOp& op, Tick when,
                                              trace::SpanRef span) {
  auto issue = [&](Tick at) {
    return op.type == OpType::kAtomic
               ? network_->Atomic(op.addr, op.aop, hmc::Value16{},
                                  op.WantReturn(), at, span)
               : network_->Read(op.addr, op.size, at, span);
  };
  hmc::Completion c = issue(when);
  if (!c.poisoned) return c;
  stats_.Inc(sid_poison_reissues_);
  c = issue(c.response_at_host);
  if (c.poisoned) stats_.Inc(sid_poison_unrecovered_);
  return c;
}

MemOutcome MemorySystem::BypassPath(int core, const MicroOp& op, Tick when,
                                    trace::SpanRef span) {
  MemOutcome out;
  SlotPool& slots = uc_slots_[static_cast<std::size_t>(core)];
  const Tick issue = slots.Acquire(when);
  if (issue > when) {
    out.issue_stall_until = issue;
    Stamp(span, trace::SpanStage::kIssue, when, issue);
  }
  stats_.Add(sid_uc_slot_wait_ns_, TicksToNs(issue - when));
  switch (op.type) {
    case OpType::kLoad: {
      hmc::Completion c = IssueRecovering(op, issue, span);
      stats_.Add(sid_uc_service_ns_, TicksToNs(c.response_at_host - issue));
      out.complete = c.response_at_host;
      out.retire_ready = c.response_at_host;
      slots.Release(c.response_at_host);
      stats_.Inc(sid_uc_reads_);
      break;
    }
    case OpType::kStore: {
      hmc::Completion c = network_->Write(op.addr, op.size, issue, span);
      out.complete = c.response_at_host;
      out.retire_ready = issue;  // posted
      slots.Release(c.internal_done);
      stats_.Inc(sid_uc_writes_);
      break;
    }
    case OpType::kAtomic: {
      hmc::Completion c = IssueRecovering(op, issue, span);
      out.complete = c.response_at_host;
      out.retire_ready = op.WantReturn() ? c.response_at_host : issue;
      slots.Release(op.WantReturn() ? c.response_at_host : c.internal_done);
      stats_.Add(sid_dbg_atomic_hold_ns_,
                 TicksToNs((op.WantReturn() ? c.response_at_host : c.internal_done) - issue));
      out.offloaded = true;
      stats_.Inc(sid_offloaded_atomics_);
      break;
    }
    default:
      GP_PANIC("non-memory op in BypassPath");
  }
  out.serializing = false;
  out.check_ticks = 0;
  return out;
}

MemOutcome MemorySystem::UPeiAtomic(int core, const MicroOp& op, Tick when,
                                    trace::SpanRef span) {
  MemOutcome out;
  out.serializing = false;
  // Locality check: occupies the core's cache-checking unit.
  Tick& check_ready = upei_check_ready_[static_cast<std::size_t>(core)];
  Tick check_start = when > check_ready ? when : check_ready;
  check_ready = check_start + NsToTicks(3.0);
  if (check_start > when) {
    out.issue_stall_until = check_start;
    Stamp(span, trace::SpanStage::kIssue, when, check_start);
  }
  when = check_start;
  int level = hierarchy_->ProbeLevel(core, op.addr);
  const mem::CacheParams& cp = cfg_.cache;
  if (level > 0) {
    // Host-side PEI execution at the hit level: idealized (no pipeline
    // freeze, free coherence) — but atomic ops to one address still
    // serialize, so this goes through the RMW path for line ordering.
    mem::AccessResult r = hierarchy_->Access(core, mem::AccessType::kAtomicRmw,
                                             op.addr, when, op.comp, span);
    // A cache-resident locked RMW still costs ~20 cycles on real hardware
    // (Schweizer et al. [21]) even with ideal coherence.
    Tick op_lat = NsToTicks(10.0);
    out.complete = r.complete + op_lat;
    out.retire_ready = out.complete;
    out.check_ticks = r.check_ticks;
    out.offloaded = false;
    stats_.Inc(sid_upei_host_hits_);
  } else {
    // Miss: PEI pays the cache walk before dispatching to memory
    // (locality monitoring), then offloads; no fill on the way back.
    Tick walk = cp.l1_latency + cp.l2_latency + cp.l3_latency;
    Stamp(span, trace::SpanStage::kCacheLookup, when, when + walk, 0);
    SlotPool& slots = uc_slots_[static_cast<std::size_t>(core)];
    const Tick issue = slots.Acquire(when + walk);
    if (issue > when + walk) {
      out.issue_stall_until = std::max(out.issue_stall_until, issue);
      Stamp(span, trace::SpanStage::kIssue, when + walk, issue);
    }
    hmc::Completion c = IssueRecovering(op, issue, span);
    out.complete = c.response_at_host;
    out.retire_ready = op.WantReturn() ? c.response_at_host : issue;
    slots.Release(op.WantReturn() ? c.response_at_host : c.internal_done);
    out.check_ticks = walk;
    out.offloaded = true;
    stats_.Inc(sid_upei_offloaded_);
    stats_.Inc(sid_offloaded_atomics_);
  }
  return out;
}

MemOutcome MemorySystem::BusLockAtomic(int core, const MicroOp& op, Tick when,
                                       trace::SpanRef span) {
  (void)core;
  // Uncacheable host atomic: the cache-line lock degrades to bus locking —
  // a full read + write round trip to memory with the entire interconnect
  // held, serializing against every other bus lock in the system.
  if (bus_lock_ready_ > when) {
    Stamp(span, trace::SpanStage::kIssue, when, bus_lock_ready_);
    when = bus_lock_ready_;
  }
  hmc::Completion rd = network_->Read(op.addr, op.size, when, span);
  hmc::Completion wr =
      network_->Write(op.addr, op.size, rd.response_at_host, span);
  Tick penalty = static_cast<Tick>(cfg_.bus_lock_penalty) *
                 NsToTicks(1.0 / cfg_.core.freq_ghz);
  MemOutcome out;
  out.complete = wr.response_at_host + penalty;
  out.retire_ready = out.complete;
  out.serializing = true;
  out.check_ticks = 0;
  out.offloaded = false;
  bus_lock_ready_ = out.complete;
  stats_.Inc(sid_bus_lock_atomics_);
  return out;
}

void MemorySystem::SampleTelemetryGauges(
    Tick win_start, Tick win_end,
    std::vector<std::pair<std::string, double>>* out) {
  // POU in-flight: UC/WC buffer slots still reserved past the cut — the
  // offloaded-request pressure GraphPIM moves out of the cache hierarchy.
  std::uint64_t inflight = 0;
  for (const SlotPool& slots : uc_slots_) inflight += slots.BusyAfter(win_end);
  out->emplace_back("tele.pou.inflight", static_cast<double>(inflight));

  // Vault queue depth: banks still reserved past the cut, plus how far the
  // deepest bank reservation extends beyond it (ns of backlog).
  out->emplace_back("tele.vault.busy_banks",
                    static_cast<double>(network_->BusyBanksAt(win_end)));
  const Tick deepest = network_->MaxBankReady();
  out->emplace_back("tele.vault.backlog_ns",
                    deepest > win_end ? TicksToNs(deepest - win_end) : 0.0);

  // Link occupancy: busy lane-time accrued this window over the window's
  // aggregate lane capacity (each full-duplex link contributes two lanes).
  const Tick busy = network_->TotalLinkBusy();
  const double cap =
      win_end > win_start
          ? static_cast<double>(win_end - win_start) * 2.0 *
                static_cast<double>(network_->TotalLinkCount())
          : 0.0;
  out->emplace_back(
      "tele.link.occupancy",
      cap > 0.0 ? static_cast<double>(busy - tele_link_busy_) / cap : 0.0);
  tele_link_busy_ = busy;
}

}  // namespace graphpim::core
