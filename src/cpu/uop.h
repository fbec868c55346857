// Micro-operations: the unit of work exchanged between the workload layer
// (which generates them while executing functionally) and the timing model
// (which replays them under each machine configuration).
//
// A micro-op carries everything the timing model needs: the operation kind,
// the simulated address and size, which data component it touches (meta /
// structure / property, Section II-C), the HMC atomic command it maps to
// (Table II), and dependency/branch-outcome annotations fixed at generation
// time so that every configuration replays the identical stream.
#ifndef GRAPHPIM_CPU_UOP_H_
#define GRAPHPIM_CPU_UOP_H_

#include <cstdint>

#include "common/types.h"
#include "hmc/atomic.h"

namespace graphpim::cpu {

enum class OpType : std::uint8_t {
  kCompute = 0,  // ALU/FP work; latency in compute_lat cycles
  kBranch = 1,   // conditional branch (mispredict flag decided at gen time)
  kLoad = 2,
  kStore = 3,
  kAtomic = 4,   // host atomic instruction ("lock"-prefixed in x86 terms)
  kBarrier = 5,  // synchronizes all threads (superstep boundary)
  // Persistency ops (DESIGN.md §14). Only persist-mode traces emit these;
  // with pmem.enable=0 they are zero-latency no-ops in the memory system.
  kFlush = 6,    // clwb-style cache-line writeback of addr's 64B line
  kFence = 7,    // sfence-style persist barrier: drains prior flushes
};

// MicroOp::flags bits.
inline constexpr std::uint8_t kFlagDepPrev = 1u << 0;      // depends on previous op
inline constexpr std::uint8_t kFlagWantReturn = 1u << 1;   // atomic needs its result
inline constexpr std::uint8_t kFlagMispredict = 1u << 2;   // branch was mispredicted
inline constexpr std::uint8_t kFlagFpCompute = 1u << 3;    // FP ALU op (longer lat)
// Marks the load of a compiler-identified comparison block (load; cmp;
// branch; CAS) that may fuse into one CAS-if-greater/less PIM atomic
// (Section III-B; see workloads/fusion.h).
inline constexpr std::uint8_t kFlagFusableCmp = 1u << 4;
// Number of defined flag bits (bits 0-4). A trace tile stores exactly
// these (cpu/uop_stream.h), so a flag byte with a higher bit is malformed.
inline constexpr unsigned kNumFlags = 5;

struct MicroOp {
  Addr addr = 0;
  OpType type = OpType::kCompute;
  DataComponent comp = DataComponent::kMeta;
  hmc::AtomicOp aop = hmc::AtomicOp::kAdd16;
  std::uint8_t size = 8;
  std::uint8_t flags = 0;
  std::uint8_t compute_lat = 1;  // cycles, for kCompute

  bool DepPrev() const { return (flags & kFlagDepPrev) != 0; }
  bool WantReturn() const { return (flags & kFlagWantReturn) != 0; }
  bool Mispredict() const { return (flags & kFlagMispredict) != 0; }
};

static_assert(sizeof(MicroOp) <= 16, "MicroOp should stay compact");

}  // namespace graphpim::cpu

#endif  // GRAPHPIM_CPU_UOP_H_
