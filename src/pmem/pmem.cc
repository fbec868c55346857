#include "pmem/pmem.h"

#include <algorithm>

#include "common/log.h"

namespace graphpim::pmem {

namespace {

constexpr Addr kLineMask = ~static_cast<Addr>(63);

}  // namespace

PersistDomain::PersistDomain(const PmemParams& params, Addr pmr_base,
                             Addr pmr_end, StatRegistry* stats)
    : params_(params),
      pmr_base_(pmr_base),
      pmr_end_(pmr_end),
      flush_ticks_(NsToTicks(params.flush_ns)),
      fence_ticks_(NsToTicks(params.fence_ns)),
      stats_(stats),
      sid_stores_(stats->Intern("pmem.pmr_stores")),
      sid_flushes_(stats->Intern("pmem.flushes")),
      sid_redundant_flushes_(stats->Intern("pmem.redundant_flushes")),
      sid_fences_(stats->Intern("pmem.fences")),
      sid_flush_ns_(stats->Intern("pmem.flush_ns")),
      sid_fence_ns_(stats->Intern("pmem.fence_ns")),
      sid_persisted_(stats->Intern("pmem.persisted_stores")),
      sid_unpersisted_(stats->Intern("pmem.unpersisted_at_end")) {
  GP_CHECK(stats != nullptr);
  GP_CHECK(pmr_end > pmr_base);
  // The domain only exists when pmem.enable=1, so passthrough runs never
  // see these names.
  TouchCounters();
}

void PersistDomain::TouchCounters() {
  for (StatId id : {sid_stores_, sid_flushes_, sid_redundant_flushes_,
                    sid_fences_, sid_flush_ns_, sid_fence_ns_, sid_persisted_,
                    sid_unpersisted_}) {
    stats_->Add(id, 0.0);
  }
}

void PersistDomain::Reset() {
  lines_.clear();
  store_seq_.clear();
  pending_lines_.clear();
  pending_flush_done_.clear();
  log_ = PersistLog{};
  TouchCounters();
}

void PersistDomain::OnStore(int core, Addr addr, std::uint8_t size, Tick when) {
  GP_CHECK(InPmr(addr), "non-PMR store reached the persist domain");
  const auto c = static_cast<std::size_t>(core);
  if (c >= lines_.size()) {
    lines_.resize(c + 1);
    pending_lines_.resize(c + 1);
    pending_flush_done_.resize(c + 1, 0);
  }
  if (c >= store_seq_.size()) store_seq_.resize(c + 1, 0);
  PersistStoreEvent ev;
  ev.core = core;
  ev.line = addr & kLineMask;
  ev.size = size;
  ev.issue = when;
  // Per-core PMR-store ordinal: mirrors TraceBuilder::PmrStoreCount, which
  // is how UpdateRecords address these events.
  ev.ordinal = store_seq_[c]++;
  lines_[c][ev.line].dirty.push_back(log_.stores.size());
  log_.stores.push_back(ev);
  stats_->Inc(sid_stores_);
}

Tick PersistDomain::OnFlush(int core, Addr addr, Tick when) {
  const auto c = static_cast<std::size_t>(core);
  if (c >= lines_.size()) {
    lines_.resize(c + 1);
    pending_lines_.resize(c + 1);
    pending_flush_done_.resize(c + 1, 0);
  }
  stats_->Inc(sid_flushes_);
  stats_->Add(sid_flush_ns_, params_.flush_ns);
  const Tick done = when + flush_ticks_;
  const Addr line = addr & kLineMask;
  LineState& st = lines_[c][line];
  if (st.dirty.empty()) {
    // Nothing new to write back: a clean-line or double flush. Still costs
    // flush_ns (the instruction executes) but is flagged — the static
    // checker reports the same condition as a redundant-flush violation.
    stats_->Inc(sid_redundant_flushes_);
  } else {
    if (st.flushed.empty()) pending_lines_[c].push_back(line);
    st.flushed.insert(st.flushed.end(), st.dirty.begin(), st.dirty.end());
    st.dirty.clear();
  }
  st.flush_done = std::max(st.flush_done, done);
  pending_flush_done_[c] = std::max(pending_flush_done_[c], done);
  return done;
}

Tick PersistDomain::OnFence(int core, Tick when) {
  const auto c = static_cast<std::size_t>(core);
  stats_->Inc(sid_fences_);
  stats_->Add(sid_fence_ns_, params_.fence_ns);
  Tick start = when;
  if (c < pending_flush_done_.size()) {
    start = std::max(start, pending_flush_done_[c]);
  }
  const Tick done = start + fence_ticks_;
  if (c < pending_lines_.size()) {
    for (Addr line : pending_lines_[c]) {
      LineState& st = lines_[c][line];
      for (std::size_t idx : st.flushed) {
        log_.stores[idx].persist = done;
        stats_->Inc(sid_persisted_);
      }
      st.flushed.clear();
    }
    pending_lines_[c].clear();
    pending_flush_done_[c] = 0;
  }
  return done;
}

void PersistDomain::Finish(Tick end_tick) {
  log_.end_tick = end_tick;
  std::uint64_t unpersisted = 0;
  for (const PersistStoreEvent& ev : log_.stores) {
    if (ev.persist == kNeverPersisted) ++unpersisted;
  }
  stats_->Add(sid_unpersisted_, static_cast<double>(unpersisted));
}

}  // namespace graphpim::pmem
