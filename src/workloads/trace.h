// Trace recording: workloads execute functionally while appending the
// per-thread micro-op streams replayed by the timing model.
//
// The builder classifies each memory address into its data component using
// the framework's address space, samples branch-misprediction outcomes
// deterministically per thread (so every machine configuration replays an
// identical stream), and supports an op cap for sampled simulation of large
// inputs.
#ifndef GRAPHPIM_WORKLOADS_TRACE_H_
#define GRAPHPIM_WORKLOADS_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "cpu/uop.h"
#include "cpu/uop_stream.h"
#include "graph/region.h"

namespace graphpim::workloads {

// Every address the builder records comes from an AddressSpace segment,
// and a trace tile holds addresses up to the end of the highest one.
static_assert(graph::AddressSpace::kPmrBase + graph::AddressSpace::kSegmentSize <=
                  cpu::kTraceAddrLimit,
              "the PMR segment must end within the trace tile's address bits");

// The product: one micro-op stream per hardware thread (== core), stored
// as tiled SoA segments (cpu::UopStream, DESIGN.md §15).
struct Trace {
  std::vector<cpu::UopStream> streams;

  std::uint64_t TotalOps() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s.size();
    return n;
  }

  // Bytes resident across all streams (tiles + spines); surfaces in the
  // report as trace.peak_bytes.
  std::uint64_t BytesUsed() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s.BytesUsed();
    return n;
  }
};

class TraceBuilder {
 public:
  TraceBuilder(int num_threads, const graph::AddressSpace* space,
               double mispredict_rate = 0.06, std::uint64_t seed = 0x5eed);

  int num_threads() const { return static_cast<int>(trace_.streams.size()); }

  // Limits the total recorded ops (sampling large runs); 0 = unlimited.
  // Also pre-reserves each stream's tile spine for its share of the cap,
  // so Push never reallocates anything but fresh 9KB tiles.
  void SetOpCap(std::uint64_t cap);
  bool Capped() const { return capped_; }

  // True if `n` more ops fit under the cap. Persist-mode workloads check
  // this before an update block so the cap never truncates a block halfway
  // (a half-emitted flush/fence sequence would read as a persist-ordering
  // bug that the workload does not have).
  bool HasRoom(std::uint64_t n) const {
    return op_cap_ == 0 || total_ops_ + n <= op_cap_;
  }

  // Cap test with the capped_ side effect; emitters bail out on this
  // before building an op, so a capped generation walk (which still has to
  // traverse the whole graph for its algorithmic state) stops paying for
  // address classification and op construction it would only throw away.
  bool AtCap() {
    if (op_cap_ != 0 && total_ops_ >= op_cap_) {
      capped_ = true;
      return true;
    }
    return false;
  }

  // --- op emitters (thread `t`) -------------------------------------------
  void Compute(int t, int lat_cycles = 1, bool dep = false, bool fp = false);
  void Branch(int t, bool dep = true);
  void Load(int t, Addr addr, std::uint8_t size, bool dep = false,
            bool fusable_cmp = false);
  void Store(int t, Addr addr, std::uint8_t size, bool dep = false);
  void Atomic(int t, Addr addr, hmc::AtomicOp aop, std::uint8_t size,
              bool want_return, bool dep = false);

  // Persistency ops (DESIGN.md §14); only persist-mode workloads emit them.
  // Flush writes back addr's 64B line (clwb); Fence is the persist barrier
  // draining every prior flush of the thread (sfence).
  void Flush(int t, Addr addr, bool dep = false);
  void Fence(int t, bool dep = true);

  // PMR (property-component) stores recorded so far for thread `t` — the
  // ordinal the persist domain assigns the NEXT PMR store of `t`. Workloads
  // use it to name payload/publish stores in UpdateRecords, and to detect
  // op-cap truncation (an update whose stores were dropped must not be
  // recorded).
  std::uint64_t PmrStoreCount(int t) const {
    return pmr_stores_[static_cast<std::size_t>(t)];
  }

  // Appends a barrier to every thread (superstep boundary).
  void Barrier();

  // Takes the finished trace (builder is left empty). Each stream's tile
  // spine is trimmed to its tiles (UopStream::shrink_to_fit), dropping
  // what SetOpCap reserved but the workload never filled, so the trace
  // can be replayed in place and its BytesUsed() equals a deep copy's.
  Trace Take();

  std::uint64_t total_ops() const { return total_ops_; }

 private:
  void Push(int t, const cpu::MicroOp& op);

  Trace trace_;
  const graph::AddressSpace* space_;
  double mispredict_rate_;
  std::vector<Rng> rngs_;  // one per thread: interleaving-independent
  std::vector<std::uint64_t> pmr_stores_;  // per-thread PMR-store ordinals
  std::uint64_t op_cap_ = 0;
  std::uint64_t total_ops_ = 0;
  std::uint64_t barrier_id_ = 0;
  bool capped_ = false;
};

// Splits `total` items into `num_threads` nearly equal chunks; returns the
// [begin, end) range owned by `t`.
std::pair<std::size_t, std::size_t> ThreadChunk(std::size_t total, int t,
                                                int num_threads);

// Returns a copy of `trace` with every atomic op replaced by a plain load +
// store to the same address — the paper's Fig 4 methodology ("running the
// benchmarks while including/excluding the atomic operations on the graph
// property"). Also used to attribute atomic time by ablation (Fig 9).
Trace ReplaceAtomicsWithPlain(const Trace& trace);

}  // namespace graphpim::workloads

#endif  // GRAPHPIM_WORKLOADS_TRACE_H_
