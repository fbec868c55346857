#include "workloads/trace_io.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/log.h"

namespace graphpim::workloads {

namespace {

constexpr char kMagic[8] = {'G', 'P', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::uint64_t kMaxStreams = 4096;  // one per simulated core

// On-disk micro-op record: fixed layout independent of MicroOp's in-memory
// packing.
struct Record {
  std::uint64_t addr;
  std::uint8_t type;
  std::uint8_t comp;
  std::uint8_t aop;
  std::uint8_t size;
  std::uint8_t flags;
  std::uint8_t compute_lat;
  std::uint8_t pad[2];
};
static_assert(sizeof(Record) == 16);

}  // namespace

void SaveTrace(const Trace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) GP_THROW("cannot open trace output file '", path, "'");
  bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f) == 1;
  std::uint64_t streams = trace.streams.size();
  ok = ok && std::fwrite(&streams, sizeof(streams), 1, f) == 1;
  for (const auto& s : trace.streams) {
    std::uint64_t n = s.size();
    ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
    for (const cpu::MicroOp& op : s) {
      Record r{};
      r.addr = op.addr;
      r.type = static_cast<std::uint8_t>(op.type);
      r.comp = static_cast<std::uint8_t>(op.comp);
      r.aop = static_cast<std::uint8_t>(op.aop);
      r.size = op.size;
      r.flags = op.flags;
      r.compute_lat = op.compute_lat;
      ok = ok && std::fwrite(&r, sizeof(r), 1, f) == 1;
      if (!ok) break;
    }
    if (!ok) break;
  }
  // fclose flushes the buffered tail, so a full disk may only show here.
  ok = std::fclose(f) == 0 && ok;
  if (!ok) GP_THROW("cannot write trace output file '", path, "'");
}

void LoadTrace(const std::string& path, Trace* out) {
  GP_CHECK(out != nullptr);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) GP_THROW("cannot open trace file '", path, "'");
  std::fseek(f.get(), 0, SEEK_END);
  const std::uint64_t size = static_cast<std::uint64_t>(std::ftell(f.get()));
  std::rewind(f.get());

  std::uint64_t off = 0;  // of the next unread byte
  auto fail = [&](std::uint64_t at, const auto&... what) {
    GP_THROW("trace file '", path, "': ", what..., " at byte ", at);
  };
  auto read = [&](void* dst, std::size_t n, const char* what) {
    if (std::fread(dst, n, 1, f.get()) != 1) fail(off, "truncated, no ", what);
    off += n;
  };
  // A count of `item`-byte entries must fit in the bytes after it, so a
  // hostile count fails before anything is reserved.
  auto read_count = [&](std::uint64_t item, const char* what) {
    std::uint64_t n = 0;
    read(&n, sizeof(n), what);
    const std::uint64_t left = size > off ? size - off : 0;
    if (n > left / item) {
      fail(off - sizeof(n), "the ", what, " ", n, " overruns the file (",
           left, " bytes left)");
    }
    return n;
  };

  char magic[8];
  read(magic, sizeof(magic), "header");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) fail(0, "bad magic");
  const std::uint64_t streams =
      read_count(sizeof(std::uint64_t), "stream count");
  if (streams > kMaxStreams) {
    fail(8, "the stream count ", streams, " is above ", kMaxStreams);
  }
  out->streams.assign(streams, {});
  for (auto& s : out->streams) {
    const std::uint64_t n = read_count(sizeof(Record), "stream length");
    s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Record r{};
      read(&r, sizeof(r), "record");
      if (r.type > static_cast<std::uint8_t>(cpu::OpType::kFence)) {
        fail(off - sizeof(r), "bad op type ", int{r.type}, " in the record");
      }
      if (r.comp > static_cast<std::uint8_t>(DataComponent::kProperty)) {
        fail(off - sizeof(r), "bad data component ", int{r.comp},
             " in the record");
      }
      if (r.aop >= static_cast<std::uint8_t>(hmc::AtomicOp::kNumOps)) {
        fail(off - sizeof(r), "bad atomic op ", int{r.aop}, " in the record");
      }
      if (r.flags >= 1u << cpu::kNumFlags) {
        fail(off - sizeof(r), "bad flags ", int{r.flags}, " (only bits 0-",
             cpu::kNumFlags - 1, " are defined) in the record");
      }
      if (r.addr >= cpu::kTraceAddrLimit) {
        fail(off - sizeof(r), "bad address ", r.addr,
             " (the limit is 2^36) in the record");
      }
      cpu::MicroOp op;
      op.addr = r.addr;
      op.type = static_cast<cpu::OpType>(r.type);
      op.comp = static_cast<DataComponent>(r.comp);
      op.aop = static_cast<hmc::AtomicOp>(r.aop);
      op.size = r.size;
      op.flags = r.flags;
      op.compute_lat = r.compute_lat;
      s.push_back(op);
    }
  }
}

}  // namespace graphpim::workloads
