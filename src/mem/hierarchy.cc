#include "mem/hierarchy.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/log.h"

namespace graphpim::mem {

CacheHierarchy::CacheHierarchy(int num_cores, const CacheParams& params,
                               hmc::HmcNetwork* mem, StatRegistry* stats,
                               trace::SpanRecorder* spans)
    : num_cores_(num_cores),
      params_(params),
      mem_(mem),
      spans_(spans),
      stats_(stats, "cache"),
      sid_atomic_reqs_(stats_.Counter("atomic_reqs")),
      sid_writebacks_(stats_.Counter("writebacks")),
      sid_coherence_invals_(stats_.Counter("coherence_invals")),
      sid_atomic_mem_misses_(stats_.Counter("atomic_mem_misses")),
      sid_atomic_line_waits_(stats_.Counter("atomic_line_waits")),
      sid_prefetch_covered_(stats_.Counter("prefetch_covered")) {
  GP_CHECK(num_cores > 0);
  GP_CHECK(mem != nullptr);
  GP_CHECK(std::has_single_bit(params.l3_banks),
           "L3 bank count must be a power of two");
  for (int i = 0; i < 3; ++i) {
    const std::string comp = ToString(static_cast<DataComponent>(i));
    sid_access_[i] = stats_.Counter("access." + comp);
    sid_l3_miss_[i] = stats_.Counter("l3_miss." + comp);
    const std::string level = "l" + std::to_string(i + 1);
    sid_hits_[i] = stats_.Counter(level + "_hits");
    sid_misses_[i] = stats_.Counter(level + "_misses");
  }
  for (int i = 0; i < num_cores; ++i) {
    l1_.push_back(std::make_unique<CacheArray>(params.l1_size, params.l1_ways,
                                               params.line_bytes));
    l2_.push_back(std::make_unique<CacheArray>(params.l2_size, params.l2_ways,
                                               params.line_bytes));
  }
  l3_ = std::make_unique<CacheArray>(params.l3_size, params.l3_ways, params.line_bytes);
  use_sharers_ = num_cores <= 64;
  mshrs_.assign(num_cores, SlotPool(params.mshrs_per_core));
  l3_bank_ready_.assign(params.l3_banks, 0);
  pf_streams_.assign(num_cores, std::vector<Addr>(params.prefetch_streams, ~Addr{0}));
  pf_next_slot_.assign(num_cores, 0);
}

void CacheHierarchy::Reset() {
  for (auto& l1 : l1_) l1->Clear();
  for (auto& l2 : l2_) l2->Clear();
  l3_->Clear();
  for (SlotPool& mshrs : mshrs_) mshrs.Reset();
  std::fill(l3_bank_ready_.begin(), l3_bank_ready_.end(), 0);
  atomic_line_ready_.Clear();
  sharers_.Clear();
  for (auto& streams : pf_streams_) {
    std::fill(streams.begin(), streams.end(), ~Addr{0});
  }
  std::fill(pf_next_slot_.begin(), pf_next_slot_.end(), 0);
}

bool CacheHierarchy::PrefetchCovers(int core, Addr line) {
  if (params_.prefetch_streams == 0) return false;
  auto& streams = pf_streams_[static_cast<std::size_t>(core)];
  for (Addr& s : streams) {
    if (s != ~Addr{0} && line == s + params_.line_bytes) {
      s = line;  // stream advances
      return true;
    }
  }
  // New stream candidate: remember this line round-robin.
  auto& slot = pf_next_slot_[static_cast<std::size_t>(core)];
  streams[slot] = line;
  slot = (slot + 1) % streams.size();
  return false;
}

Addr CacheHierarchy::LineOf(Addr addr) const {
  return addr & ~static_cast<Addr>(params_.line_bytes - 1);
}

Tick CacheHierarchy::ReserveL3(Addr line, Tick when) {
  // Line size (checked by CacheArray) and bank count are powers of two.
  const std::size_t line_idx =
      static_cast<std::size_t>(line >> std::countr_zero(params_.line_bytes));
  const std::size_t bank = line_idx & (l3_bank_ready_.size() - 1);
  Tick start = std::max(when, l3_bank_ready_[bank]);
  l3_bank_ready_[bank] = start + params_.l3_occupancy;
  return start;
}

bool CacheHierarchy::DropPrivateCopies(Addr line, std::uint64_t mask,
                                       int skip, bool* dirty) {
  bool any = false;
  for (int c = 0; c < num_cores_; ++c) {
    if (c == skip) continue;
    if (use_sharers_ && ((mask >> c) & 1) == 0) continue;
    bool d1 = false;
    bool d2 = false;
    const bool in_l1 = l1_[c]->Invalidate(line, &d1);
    const bool in_l2 = l2_[c]->Invalidate(line, &d2);
    any = any || in_l1 || in_l2;
    *dirty = *dirty || d1 || d2;
  }
  return any;
}

bool CacheHierarchy::InvalidateRemote(int core, Addr line) {
  std::uint64_t mask = ~std::uint64_t{0};
  if (use_sharers_) {
    std::uint64_t* entry = sharers_.Find(line);
    if (entry == nullptr) return false;
    mask = *entry;
    // Only the requester can still hold (or is about to fill) the line.
    *entry = std::uint64_t{1} << core;
  }
  bool dirty = false;
  const bool any = DropPrivateCopies(line, mask, core, &dirty);
  // A dirty remote copy is forwarded; preserve it at the L3 level so it is
  // not lost if the requester later evicts clean.
  if (dirty) GP_CHECK(l3_->SetDirty(line), "private line missing from the L3");
  return any;
}

void CacheHierarchy::FillAbove(int core, Addr line, int hit_level, Tick when,
                               bool dirty) {
  CacheArray& l1 = *l1_[core];
  CacheArray& l2 = *l2_[core];
  if (hit_level == 1) {
    if (dirty) l1.SetDirty(line);
    return;
  }
  if (hit_level == 0) {
    // Shared L3 (inclusive of all private caches).
    CacheArray::Victim v3 = l3_->Insert(line, false);
    if (v3.valid) {
      // Inclusive back-invalidation of the victim line everywhere; with
      // the sharers map, "everywhere" shrinks to the recorded holders and
      // the victim's entry dies with its L3 residency.
      std::uint64_t vmask = ~std::uint64_t{0};
      if (use_sharers_) {
        const std::uint64_t* ventry = sharers_.Find(v3.line_addr);
        vmask = ventry != nullptr ? *ventry : 0;
        if (ventry != nullptr) sharers_.Erase(v3.line_addr);
      }
      bool victim_dirty = v3.dirty;
      DropPrivateCopies(v3.line_addr, vmask, /*skip=*/-1, &victim_dirty);
      if (victim_dirty) {
        mem_->Write(v3.line_addr, params_.line_bytes, when);
        stats_.Inc(sid_writebacks_);
      }
    }
  }
  if (hit_level != 2) {
    // Private L2. Its victim leaves the L1 too, and a dirty one stays
    // dirty in the L3, which holds it by inclusion.
    CacheArray::Victim v2 = l2.Insert(line, false);
    if (v2.valid) {
      bool d1 = false;
      l1.Invalidate(v2.line_addr, &d1);
      if (v2.dirty || d1) {
        GP_CHECK(l3_->SetDirty(v2.line_addr), "L2 victim missing from the L3");
      }
    }
  }
  // Private L1; a dirty victim stays dirty in the L2, which holds it by
  // inclusion.
  CacheArray::Victim v1 = l1.Insert(line, dirty);
  if (v1.valid && v1.dirty) {
    GP_CHECK(l2.SetDirty(v1.line_addr), "L1 victim missing from the L2");
  }
  if (use_sharers_) sharers_[line] |= std::uint64_t{1} << core;
}

AccessResult CacheHierarchy::Access(int core, AccessType type, Addr addr,
                                    Tick when, DataComponent comp,
                                    SpanRef span) {
  GP_CHECK(core >= 0 && core < num_cores_);
  Tick t = when;
  // Locked RMWs on one line serialize across cores.
  if (type == AccessType::kAtomicRmw) {
    const Tick* ready = atomic_line_ready_.Find(LineOf(addr));
    if (ready != nullptr && *ready > t) {
      stats_.Inc(sid_atomic_line_waits_);
      t = *ready;
    }
    if (t > when) Stamp(span, trace::SpanStage::kIssue, when, t);
  }
  AccessResult res = AccessInternal(core, type, addr, t, comp, span);
  if (type == AccessType::kAtomicRmw) {
    atomic_line_ready_[LineOf(addr)] = res.complete;
  }
  return res;
}

AccessResult CacheHierarchy::AccessInternal(int core, AccessType type, Addr addr,
                                            Tick when, DataComponent comp,
                                            SpanRef span) {
  const Addr line = LineOf(addr);
  const bool wants_exclusive = type != AccessType::kRead;
  AccessResult res;
  Tick t = when;

  stats_.Inc(sid_access_[static_cast<int>(comp)]);
  if (type == AccessType::kAtomicRmw) stats_.Inc(sid_atomic_reqs_);

  CacheArray* const levels[3] = {l1_[core].get(), l2_[core].get(), l3_.get()};
  const Tick latency[3] = {params_.l1_latency, params_.l2_latency,
                           params_.l3_latency};
  for (int i = 0; i < 3; ++i) {
    if (i == 2) t = ReserveL3(line, t);  // the shared L3 is banked
    t += latency[i];
    res.check_ticks += latency[i];
    if (!levels[i]->Lookup(line)) {
      stats_.Inc(sid_misses_[i]);
      continue;
    }
    const int level = i + 1;
    res.hit_level = level;
    stats_.Inc(sid_hits_[i]);
    if (wants_exclusive && InvalidateRemote(core, line)) {
      res.coherence_inval = true;
      t += params_.snoop_latency;
      res.check_ticks += params_.snoop_latency;
      stats_.Inc(sid_coherence_invals_);
    }
    FillAbove(core, line, level, t, wants_exclusive);
    res.complete = t;
    Stamp(span, trace::SpanStage::kCacheLookup, when, res.complete, level);
    return res;
  }
  stats_.Inc(sid_l3_miss_[static_cast<int>(comp)]);
  if (type == AccessType::kAtomicRmw) {
    stats_.Inc(sid_atomic_mem_misses_);
  }
  // Full-walk miss: the lookup stage ends at the L3 tag-check result.
  Stamp(span, trace::SpanStage::kCacheLookup, when, t, 0);

  // Stream prefetcher: a sequential miss is already in flight and lands in
  // the fill buffer (the memory traffic still happens).
  if (PrefetchCovers(core, line)) {
    mem_->Read(line, params_.line_bytes, t);
    stats_.Inc(sid_prefetch_covered_);
    res.complete = t + params_.prefetch_hit_latency;
    FillAbove(core, line, 0, res.complete, wants_exclusive);
    return res;
  }

  // Main memory: MSHR-limited, filled from the HMC cube.
  SlotPool& mshrs = mshrs_[core];
  const Tick issue = mshrs.Acquire(t);
  if (issue > t) {
    res.issue_stall = issue;
    Stamp(span, trace::SpanStage::kIssue, t, issue);
  }
  hmc::Completion c = mem_->Read(line, params_.line_bytes, issue, span);
  mshrs.Release(c.response_at_host);
  res.complete = c.response_at_host;
  FillAbove(core, line, 0, c.response_at_host, wants_exclusive);
  return res;
}

int CacheHierarchy::ProbeLevel(int core, Addr addr) const {
  const Addr line = LineOf(addr);
  if (l1_[core]->Contains(line)) return 1;
  if (l2_[core]->Contains(line)) return 2;
  if (l3_->Contains(line)) return 3;
  return 0;
}

}  // namespace graphpim::mem
