// Tiled structure-of-arrays micro-op streams (DESIGN.md §15).
//
// A UopStream stores one hardware thread's micro-op trace as a chain of
// fixed-size TraceTiles. A tile holds 1024 ops in three fixed-width
// columns, 9 bytes per op:
//
//   * type    — one byte per op, read alone by the barrier scan;
//   * word    — four bytes packing everything else but the low address
//               bits, low to high: component (2 bits), atomic op (5),
//               flags (5), size (8), compute latency (8) and address
//               bits 32-35 (4);
//   * addr_lo — address bits 0-31.
//
// So a tile is 9KB, and an op's address must lie below kTraceAddrLimit =
// 2^36 (workloads/trace.h ties that to the end of the simulated address
// space). Fixed-width lanes keep every op at a computable position, so
// OooCore::Advance walks one L2-resident tile at a time, and
// TraceBuilder::Push is a lane write plus a rare 9KB tile allocation
// instead of geometric reallocation-and-copy of one huge vector.
//
// The container keeps a vector-compatible surface (push_back / reserve /
// shrink_to_fit / size / operator[] / value-yielding iterators) so trace
// transforms (ReplaceAtomicsWithPlain, fusion), the persist checker, and
// tests migrate without semantic change. operator[] and the iterator return
// MicroOp BY VALUE, decoded from the columns — callers that bind a
// `const MicroOp&` get a lifetime-extended temporary, which is fine for
// every existing read-only use.
#ifndef GRAPHPIM_CPU_UOP_STREAM_H_
#define GRAPHPIM_CPU_UOP_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/log.h"
#include "cpu/uop.h"

namespace graphpim::cpu {

// 1024 ops per tile: 1KB type + 4KB word + 4KB addr_lo columns = 9KB.
inline constexpr std::size_t kTileShift = 10;
inline constexpr std::size_t kTileOps = std::size_t{1} << kTileShift;
inline constexpr std::size_t kTileMask = kTileOps - 1;

// Every address a tile can hold is below this: 32 bits in addr_lo plus
// four in word.
inline constexpr Addr kTraceAddrLimit = Addr{1} << 36;

// One SoA segment. Lanes [0, count) of the owning stream's tail tile are
// live; interior tiles are always full.
struct TraceTile {
  // Bit offsets of the fields packed into `word`.
  static constexpr unsigned kAopShift = 2;
  static constexpr unsigned kFlagsShift = 7;
  static constexpr unsigned kSizeShift = 12;
  static constexpr unsigned kLatShift = 20;
  static constexpr unsigned kAddrHiShift = 28;
  static_assert(static_cast<unsigned>(DataComponent::kProperty) < 4);
  static_assert(static_cast<unsigned>(hmc::AtomicOp::kNumOps) <= 32);
  static_assert(kFlagsShift + kNumFlags == kSizeShift);

  std::uint8_t type[kTileOps];
  std::uint32_t word[kTileOps];
  std::uint32_t addr_lo[kTileOps];

  // Decodes lane `l` as a MicroOp.
  MicroOp Get(std::size_t l) const {
    const std::uint32_t w = word[l];
    MicroOp op;
    op.addr = (Addr{w >> kAddrHiShift} << 32) | addr_lo[l];
    op.type = static_cast<OpType>(type[l]);
    op.comp = static_cast<DataComponent>(w & 0x3u);
    op.aop = static_cast<hmc::AtomicOp>((w >> kAopShift) & 0x1fu);
    op.flags = static_cast<std::uint8_t>((w >> kFlagsShift) & 0x1fu);
    op.size = static_cast<std::uint8_t>(w >> kSizeShift);
    op.compute_lat = static_cast<std::uint8_t>(w >> kLatShift);
    return op;
  }

  // Encodes `op` into lane `l`. An op the lane cannot hold is a bug in
  // its producer; LoadTrace rejects such records before they get here.
  void Set(std::size_t l, const MicroOp& op) {
    GP_CHECK(op.addr < kTraceAddrLimit, "address ", op.addr,
             " is beyond the trace tile's 2^36 limit");
    GP_CHECK(op.flags < (1u << kNumFlags), "undefined flag bits in ",
             int{op.flags});
    type[l] = static_cast<std::uint8_t>(op.type);
    word[l] = static_cast<std::uint32_t>(op.comp) |
              static_cast<std::uint32_t>(op.aop) << kAopShift |
              std::uint32_t{op.flags} << kFlagsShift |
              std::uint32_t{op.size} << kSizeShift |
              std::uint32_t{op.compute_lat} << kLatShift |
              static_cast<std::uint32_t>(op.addr >> 32) << kAddrHiShift;
    addr_lo[l] = static_cast<std::uint32_t>(op.addr);
  }
};

class UopStream {
 public:
  UopStream() = default;
  UopStream(std::initializer_list<MicroOp> ops) {
    reserve(ops.size());
    for (const MicroOp& op : ops) push_back(op);
  }
  UopStream(std::size_t count, const MicroOp& op) {
    reserve(count);
    for (std::size_t i = 0; i < count; ++i) push_back(op);
  }

  // Tiles never move once allocated, but copies must be deep (Trace is
  // copied by drivers before fusion / trace-in substitution).
  UopStream(const UopStream& other) { *this = other; }
  UopStream& operator=(const UopStream& other) {
    if (this == &other) return *this;
    tiles_.clear();
    tiles_.reserve(other.tiles_.size());
    for (const auto& t : other.tiles_) {
      tiles_.push_back(std::make_unique<TraceTile>(*t));
    }
    size_ = other.size_;
    return *this;
  }
  UopStream(UopStream&&) = default;
  UopStream& operator=(UopStream&&) = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Reserves tile-pointer capacity for `n` ops. Tiles themselves are
  // allocated lazily (one 9KB block per kTileOps pushes).
  void reserve(std::size_t n) { tiles_.reserve((n + kTileMask) >> kTileShift); }

  // Trims the tile-pointer spine to the tiles in use, so a stream built
  // under a reserve() that was never filled holds, and BytesUsed()
  // counts, exactly what a deep copy of it would.
  void shrink_to_fit() { tiles_.shrink_to_fit(); }

  void push_back(const MicroOp& op) {
    const std::size_t lane = size_ & kTileMask;
    if (lane == 0 && (size_ >> kTileShift) == tiles_.size()) {
      tiles_.push_back(std::make_unique<TraceTile>());
    }
    tiles_[size_ >> kTileShift]->Set(lane, op);
    ++size_;
  }

  void clear() {
    tiles_.clear();
    size_ = 0;
  }

  MicroOp operator[](std::size_t i) const {
    return tiles_[i >> kTileShift]->Get(i & kTileMask);
  }

  // Direct tile access for the column-wise replay loop.
  std::size_t num_tiles() const { return tiles_.size(); }
  const TraceTile& tile(std::size_t t) const { return *tiles_[t]; }

  // Bytes resident for this stream's ops (tiles plus the pointer spine) —
  // the figure behind the report's trace.peak_bytes line.
  std::uint64_t BytesUsed() const {
    return static_cast<std::uint64_t>(tiles_.size()) * sizeof(TraceTile) +
           static_cast<std::uint64_t>(tiles_.capacity()) *
               sizeof(std::unique_ptr<TraceTile>);
  }

  // Forward value iterator (yields MicroOp by value).
  class const_iterator {
   public:
    using value_type = MicroOp;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const UopStream* s, std::size_t i) : s_(s), i_(i) {}
    MicroOp operator*() const { return (*s_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const UopStream* s_ = nullptr;
    std::size_t i_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  std::vector<std::unique_ptr<TraceTile>> tiles_;
  std::size_t size_ = 0;
};

}  // namespace graphpim::cpu

#endif  // GRAPHPIM_CPU_UOP_STREAM_H_
