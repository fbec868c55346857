// Three-level cache hierarchy with MESI-style coherence costs.
//
// Private 32KB L1 + 256KB L2 per core, 16MB shared inclusive L3 (Table IV),
// 64-byte lines, write-allocate/writeback, MSHR-limited memory-level
// parallelism per core, and read-for-ownership invalidations on writes and
// host atomics. Misses are filled from the HMC cube network, which also
// receives dirty writebacks (their FLITs count toward Fig 12's bandwidth).
// The levels are inclusive, so only the L3's victims are written back.
//
// Coherence is modeled at the cost level the paper measures: a write/RMW to
// a line present in another core's private cache pays a snoop-invalidation
// latency and is counted as coherence traffic; full MESI state transitions
// beyond presence/dirtiness are not tracked (see DESIGN.md "Fidelity").
// The inclusive L3 is the directory: each L3 slot keeps one sharer bit per
// core beside its tag.
#ifndef GRAPHPIM_MEM_HIERARCHY_H_
#define GRAPHPIM_MEM_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/line_map.h"
#include "common/slot_pool.h"
#include "common/stats.h"
#include "common/types.h"
#include "hmc/topology.h"
#include "mem/cache.h"
#include "mem/request.h"

namespace graphpim::mem {

struct CacheParams {
  std::uint32_t line_bytes = 64;

  std::uint64_t l1_size = 32 * kKiB;
  std::uint32_t l1_ways = 8;
  Tick l1_latency = NsToTicks(2.0);  // 4 cycles @ 2GHz

  std::uint64_t l2_size = 256 * kKiB;
  std::uint32_t l2_ways = 8;
  Tick l2_latency = NsToTicks(6.0);  // 12 cycles

  std::uint64_t l3_size = 16 * kMiB;
  std::uint32_t l3_ways = 16;
  Tick l3_latency = NsToTicks(20.0);  // 40 cycles
  std::uint32_t l3_banks = 8;  // a power of two
  Tick l3_occupancy = NsToTicks(1.0);  // per-access bank busy time

  std::uint32_t mshrs_per_core = 16;

  // Remote snoop-invalidation latency for RFO on a shared line.
  Tick snoop_latency = NsToTicks(15.0);

  // Stream prefetcher: sequential misses detected against this many
  // per-core reference streams are covered by the prefetcher (cacheable
  // accesses only — UC/PMR accesses cannot be prefetched). 0 disables.
  std::uint32_t prefetch_streams = 8;
  Tick prefetch_hit_latency = NsToTicks(4.0);  // fill buffer hit
};

class CacheHierarchy {
 public:
  // `mem` is the backing cube network; not owned. `stats` may be null. All
  // "cache." counter names are interned here, including the per-component
  // and per-level families — hot-path updates are plain indexed adds.
  // `spans` (may be null) is the transaction flight recorder; the walk
  // stamps kCacheLookup / kIssue stages onto sampled requests.
  CacheHierarchy(int num_cores, const CacheParams& params, hmc::HmcNetwork* mem,
                 StatRegistry* stats = nullptr,
                 trace::SpanRecorder* spans = nullptr);

  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  // Performs a cacheable access from `core` starting at `when`.
  // AtomicRmw behaves like a write (RFO) and reports hit level for the
  // offloading-candidate analysis (Fig 10). `span` threads the flight
  // recorder handle for sampled requests (invalid = unsampled).
  AccessResult Access(int core, AccessType type, Addr addr, Tick when,
                      DataComponent comp = DataComponent::kMeta,
                      SpanRef span = SpanRef());

  // Non-destructive probe: highest level at which `core` would hit
  // (1/2/3, 0 = miss everywhere). Used by the idealized U-PEI policy.
  int ProbeLevel(int core, Addr addr) const;

  // Restores the cold state of a freshly built hierarchy: empty arrays,
  // idle MSHRs and L3 banks, no line locks or prefetch streams. The sharer
  // words and the registry's counters are left as they are: an L3 insert
  // rewrites a slot's words before they are read.
  void Reset();

  int num_cores() const { return num_cores_; }
  const CacheParams& params() const { return params_; }

 private:
  AccessResult AccessInternal(int core, AccessType type, Addr addr, Tick when,
                              DataComponent comp, SpanRef span);

  // Span stage stamp; single never-taken branch when tracing is off.
  void Stamp(SpanRef span, trace::SpanStage stage, Tick enter, Tick exit,
             std::uint32_t detail = 0) {
    if (spans_ != nullptr) spans_->Stage(span, stage, enter, exit, detail);
  }

  Addr LineOf(Addr addr) const;

  // The sharer words of L3 slot `slot`.
  std::uint64_t* SharersOf(std::size_t slot) {
    return &sharers_[slot * sharer_words_];
  }

  // Invalidates `line` in the private caches of every core whose bit is
  // set in `words` but `keep` (-1 keeps none), in ascending core order, and
  // leaves only `keep`'s bit set; returns true if any copy existed, and sets
  // *dirty if a dropped copy was dirty.
  bool DropPrivateCopies(Addr line, std::uint64_t* words, int keep, bool* dirty);

  // Invalidates `line` in other cores' private caches; returns true if any
  // copy existed. Dirty remote copies are (logically) forwarded.
  bool InvalidateRemote(int core, Addr line);

  // Fills `line` into the levels above `hit_level` (0 = memory or the
  // prefetcher): L1 on an L2 hit, L2 and L1 on an L3 hit, all three from
  // memory; an L1 hit only marks the line dirty. Handles evictions, the L3
  // victim's writeback and inclusive back-invalidation; by inclusion a
  // dirty L1 or L2 victim is found one level down, which is checked, not
  // handled. `when` is fill time.
  void FillAbove(int core, Addr line, int hit_level, Tick when, bool dirty);

  // Reserves an L3 bank slot; returns access start time.
  Tick ReserveL3(Addr line, Tick when);

  int num_cores_;
  CacheParams params_;
  hmc::HmcNetwork* mem_;
  trace::SpanRecorder* spans_;  // may be null (tracing off)
  StatScope stats_;  // "cache." counters
  StatId sid_access_[3];   // by DataComponent
  StatId sid_l3_miss_[3];  // by DataComponent
  StatId sid_hits_[3];     // by level - 1
  StatId sid_misses_[3];   // by level - 1
  StatId sid_atomic_reqs_;
  StatId sid_writebacks_;
  StatId sid_coherence_invals_;
  StatId sid_atomic_mem_misses_;
  StatId sid_atomic_line_waits_;
  StatId sid_prefetch_covered_;

  std::vector<std::unique_ptr<CacheArray>> l1_;
  std::vector<std::unique_ptr<CacheArray>> l2_;
  std::unique_ptr<CacheArray> l3_;

  std::vector<SlotPool> mshrs_;  // one per core
  std::vector<Tick> l3_bank_ready_;  // one per bank; a power of two

  // Host locked RMWs to the same line serialize (the line lock bounces
  // between cores); tracks when each line's previous RMW completed.
  LineMap<Tick> atomic_line_ready_;

  // The directory: sharer_words_ words per L3 slot, one bit per core that
  // MAY hold a private copy of the slot's line. A fill from the L3 or from
  // memory sets the requester's bit. A private eviction leaves its bit set
  // (a set bit may find nothing), but a clear bit never misses a copy. An
  // L3 insert empties the slot's words. Kept apart from the tags so an
  // 8-way set of 16-byte ways still spans two host cache lines.
  std::size_t sharer_words_ = 0;
  std::vector<std::uint64_t> sharers_;

  // Per-core stream-prefetcher reference lines.
  std::vector<std::vector<Addr>> pf_streams_;
  std::vector<std::size_t> pf_next_slot_;

  // Returns true (and trains the detector) when `line` continues one of
  // the core's reference streams.
  bool PrefetchCovers(int core, Addr line);
};

}  // namespace graphpim::mem

#endif  // GRAPHPIM_MEM_HIERARCHY_H_
