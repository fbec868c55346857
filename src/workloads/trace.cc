#include "workloads/trace.h"

#include "common/log.h"

namespace graphpim::workloads {

using cpu::MicroOp;
using cpu::OpType;

TraceBuilder::TraceBuilder(int num_threads, const graph::AddressSpace* space,
                           double mispredict_rate, std::uint64_t seed)
    : space_(space), mispredict_rate_(mispredict_rate) {
  GP_CHECK(num_threads > 0);
  GP_CHECK(space != nullptr);
  trace_.streams.resize(static_cast<std::size_t>(num_threads));
  pmr_stores_.assign(static_cast<std::size_t>(num_threads), 0);
  rngs_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    rngs_.emplace_back(seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(t) + 1);
  }
}

void TraceBuilder::SetOpCap(std::uint64_t cap) {
  op_cap_ = cap;
  if (cap == 0) return;
  const std::uint64_t per =
      cap / static_cast<std::uint64_t>(trace_.streams.size()) + 1;
  for (auto& s : trace_.streams) s.reserve(per);
}

void TraceBuilder::Push(int t, const MicroOp& op) {
  if (AtCap()) return;
  // Count PMR stores that actually land in the stream, so PmrStoreCount
  // mirrors the ordinals the persist domain will assign during replay
  // (ops dropped at the cap never reach the memory system).
  if (op.type == OpType::kStore && op.comp == DataComponent::kProperty) {
    ++pmr_stores_[static_cast<std::size_t>(t)];
  }
  trace_.streams[static_cast<std::size_t>(t)].push_back(op);
  ++total_ops_;
}

void TraceBuilder::Compute(int t, int lat_cycles, bool dep, bool fp) {
  if (AtCap()) return;
  MicroOp op;
  op.type = OpType::kCompute;
  op.compute_lat = static_cast<std::uint8_t>(lat_cycles);
  if (dep) op.flags |= cpu::kFlagDepPrev;
  if (fp) op.flags |= cpu::kFlagFpCompute;
  Push(t, op);
}

void TraceBuilder::Branch(int t, bool dep) {
  if (AtCap()) return;
  MicroOp op;
  op.type = OpType::kBranch;
  if (dep) op.flags |= cpu::kFlagDepPrev;
  if (rngs_[static_cast<std::size_t>(t)].NextBool(mispredict_rate_)) {
    op.flags |= cpu::kFlagMispredict;
  }
  Push(t, op);
}

void TraceBuilder::Load(int t, Addr addr, std::uint8_t size, bool dep,
                        bool fusable_cmp) {
  if (AtCap()) return;
  MicroOp op;
  op.type = OpType::kLoad;
  op.addr = addr;
  op.size = size;
  op.comp = space_->ComponentOf(addr);
  if (dep) op.flags |= cpu::kFlagDepPrev;
  if (fusable_cmp) op.flags |= cpu::kFlagFusableCmp;
  Push(t, op);
}

void TraceBuilder::Store(int t, Addr addr, std::uint8_t size, bool dep) {
  if (AtCap()) return;
  MicroOp op;
  op.type = OpType::kStore;
  op.addr = addr;
  op.size = size;
  op.comp = space_->ComponentOf(addr);
  if (dep) op.flags |= cpu::kFlagDepPrev;
  Push(t, op);
}

void TraceBuilder::Atomic(int t, Addr addr, hmc::AtomicOp aop, std::uint8_t size,
                          bool want_return, bool dep) {
  if (AtCap()) return;
  MicroOp op;
  op.type = OpType::kAtomic;
  op.addr = addr;
  op.aop = aop;
  op.size = size;
  op.comp = space_->ComponentOf(addr);
  if (want_return) op.flags |= cpu::kFlagWantReturn;
  if (dep) op.flags |= cpu::kFlagDepPrev;
  Push(t, op);
}

void TraceBuilder::Flush(int t, Addr addr, bool dep) {
  if (AtCap()) return;
  MicroOp op;
  op.type = OpType::kFlush;
  op.addr = addr;
  op.size = 64;  // whole line writes back regardless of the store width
  op.comp = space_->ComponentOf(addr);
  if (dep) op.flags |= cpu::kFlagDepPrev;
  Push(t, op);
}

void TraceBuilder::Fence(int t, bool dep) {
  MicroOp op;
  op.type = OpType::kFence;
  if (dep) op.flags |= cpu::kFlagDepPrev;
  Push(t, op);
}

void TraceBuilder::Barrier() {
  // Barriers are always recorded (even past the op cap) so that every
  // stream observes the same superstep count.
  ++barrier_id_;
  for (auto& s : trace_.streams) {
    MicroOp op;
    op.type = OpType::kBarrier;
    op.addr = barrier_id_;
    s.push_back(op);
  }
}

Trace TraceBuilder::Take() {
  Trace out = std::move(trace_);
  for (auto& s : out.streams) s.shrink_to_fit();
  trace_ = Trace{};
  trace_.streams.resize(out.streams.size());
  return out;
}

Trace ReplaceAtomicsWithPlain(const Trace& trace) {
  Trace out;
  out.streams.reserve(trace.streams.size());
  for (const auto& stream : trace.streams) {
    cpu::UopStream s;
    s.reserve(stream.size() + stream.size() / 8);
    for (const MicroOp& op : stream) {
      if (op.type != OpType::kAtomic) {
        s.push_back(op);
        continue;
      }
      MicroOp ld = op;
      ld.type = OpType::kLoad;
      ld.flags = static_cast<std::uint8_t>(op.flags & cpu::kFlagDepPrev);
      s.push_back(ld);
      MicroOp st = op;
      st.type = OpType::kStore;
      st.flags = cpu::kFlagDepPrev;
      s.push_back(st);
    }
    out.streams.push_back(std::move(s));
  }
  return out;
}

std::pair<std::size_t, std::size_t> ThreadChunk(std::size_t total, int t,
                                                int num_threads) {
  std::size_t per = total / static_cast<std::size_t>(num_threads);
  std::size_t rem = total % static_cast<std::size_t>(num_threads);
  std::size_t tt = static_cast<std::size_t>(t);
  std::size_t begin = tt * per + std::min(tt, rem);
  std::size_t end = begin + per + (tt < rem ? 1 : 0);
  return {begin, end};
}

}  // namespace graphpim::workloads
