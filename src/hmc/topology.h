// Multi-cube HMC network: sharded PMR across a chain or star of cubes.
//
// GraphPIM's evaluation models one 8 GB HMC 2.0 package. The HMC 2.0 spec
// allows up to 8 packages to be chained over the same SerDes links, and the
// paper's Section III-B hybrid-memory discussion is exactly about property
// data that does not fit one cube. `HmcNetwork` scales capacity that way:
//
//   - it owns `num_cubes` identical `HmcCube`s;
//   - PMR addresses interleave across cubes at page granularity
//     (`cube_page_bytes`), non-PMR addresses at absolute-page granularity,
//     so every page has exactly ONE home cube and the carve is bijective;
//   - a transaction for a remote cube pays pass-through hops — SerDes link
//     serialization on the inter-cube hop link (full-duplex, bandwidth
//     accounted per hop) plus link + pass-through crossbar latency — before
//     and after the home cube's own (unchanged) timing;
//   - chain: cube c is c hops from the host; star: cube 0 is the hub and
//     every other cube is 1 hop behind it;
//   - each cube draws its own decorrelated fault stream
//     (fault::DeriveCubeFaultSeed), cube 0 keeping the single-cube stream.
//
// `num_cubes == 1` is a zero-hop passthrough: every call forwards directly
// to the single cube, so results are byte-identical to the pre-network
// simulator (the tests/golden/ contract).
#ifndef GRAPHPIM_HMC_TOPOLOGY_H_
#define GRAPHPIM_HMC_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "hmc/cube.h"
#include "hmc/link.h"

namespace graphpim::hmc {

// Pure page-carving math for the cube shard mapping, shared by the network
// hot path and the bijectivity tests. PMR pages are carved relative to
// `pmr_base` (so shard 0 always starts at the PMR base regardless of where
// the region sits); everything else interleaves on absolute page number.
struct CubeMap {
  std::uint32_t num_cubes = 1;
  std::uint64_t page_bytes = 4096;
  Addr pmr_base = 0;
  Addr pmr_end = 0;

  bool InPmr(Addr a) const { return a >= pmr_base && a < pmr_end; }

  // Home cube of `a`'s page.
  std::uint32_t CubeOf(Addr a) const {
    if (num_cubes <= 1) return 0;
    const std::uint64_t page =
        InPmr(a) ? (a - pmr_base) / page_bytes : a / page_bytes;
    return static_cast<std::uint32_t>(page % num_cubes);
  }

  // Strips the cube-interleave bits: the address `a` occupies inside its
  // home cube. Bijective per cube — Reconstruct(CubeOf(a), LocalAddr(a))
  // round-trips to `a` exactly.
  Addr LocalAddr(Addr a) const {
    if (num_cubes <= 1) return a;
    if (InPmr(a)) {
      const std::uint64_t off = a - pmr_base;
      const std::uint64_t page = off / page_bytes;
      return pmr_base + (page / num_cubes) * page_bytes + off % page_bytes;
    }
    const std::uint64_t page = a / page_bytes;
    return (page / num_cubes) * page_bytes + a % page_bytes;
  }

  // Inverse of (CubeOf, LocalAddr). `local` must be a LocalAddr() result
  // whose PMR-ness matches the original address (the carve preserves it).
  Addr Reconstruct(std::uint32_t cube, Addr local) const {
    if (num_cubes <= 1) return local;
    if (InPmr(local)) {
      const std::uint64_t off = local - pmr_base;
      const std::uint64_t local_page = off / page_bytes;
      return pmr_base + (local_page * num_cubes + cube) * page_bytes +
             off % page_bytes;
    }
    const std::uint64_t local_page = local / page_bytes;
    return (local_page * num_cubes + cube) * page_bytes + local % page_bytes;
  }
};

// The cube network. Exposes the same transaction surface as one HmcCube so
// mem::CacheHierarchy and core::MemorySystem route through it unchanged.
class HmcNetwork {
 public:
  // `params` describes every cube (num_cubes/cube_topology/cube_page_bytes
  // are the network knobs). `pmr_base`/`pmr_end` delimit the sharded PMR.
  // Cube i > 0 re-seeds its fault plan with DeriveCubeFaultSeed so the
  // cubes inject decorrelated fault streams. `spans` (may be null) is the
  // transaction flight recorder: hop traversals stamp kHopLink stages and
  // the handle threads into the home cube's own stamps.
  HmcNetwork(const HmcParams& params, StatRegistry* stats, Addr pmr_base,
             Addr pmr_end, trace::SpanRecorder* spans = nullptr);

  HmcNetwork(const HmcNetwork&) = delete;
  HmcNetwork& operator=(const HmcNetwork&) = delete;

  // Transactions, routed to the address's home cube with inter-cube hop
  // costs applied on both directions of the path. `span` is the flight
  // recorder handle of the enclosing sampled request (invalid = unsampled).
  Completion Read(Addr addr, std::uint32_t size, Tick when,
                  trace::SpanRef span = trace::SpanRef());
  Completion Write(Addr addr, std::uint32_t size, Tick when,
                   trace::SpanRef span = trace::SpanRef());
  Completion Atomic(Addr addr, AtomicOp op, const Value16& operand,
                    bool want_return, Tick when,
                    trace::SpanRef span = trace::SpanRef());

  // Restores the cold state of a freshly built network: every cube and
  // hop link idle. Call it after resetting the registry: a multi-cube
  // network sets its hmc.cubes and hmc.capacity_gib counters again, as
  // its constructor does.
  void Reset();

  // Functional mode fans out to every cube; functional reads/writes route
  // to the home cube's backing store under the carved local address.
  void set_functional(bool on);
  bool functional() const { return cubes_[0]->functional(); }
  Value16 FunctionalRead(Addr addr) const;
  void FunctionalWrite(Addr addr, const Value16& v);

  // Shard mapping (exposed for tests and benches).
  const CubeMap& map() const { return map_; }
  std::uint32_t CubeOf(Addr addr) const { return map_.CubeOf(addr); }

  // Extra pass-through hops between the host and `cube` (0 for the cube
  // the host links reach directly).
  std::uint32_t HopsTo(std::uint32_t cube) const;

  std::uint32_t num_cubes() const { return static_cast<std::uint32_t>(cubes_.size()); }
  HmcCube& cube(std::uint32_t i) { return *cubes_[i]; }
  const HmcCube& cube(std::uint32_t i) const { return *cubes_[i]; }
  const HmcParams& params() const { return params_; }

  // Total addressable capacity across the network (monotone in num_cubes).
  std::uint64_t TotalCapacityBytes() const {
    return params_.capacity_bytes * num_cubes();
  }

  // Energy-model aggregates summed over every cube plus the hop links.
  Tick TotalIntFuBusy() const;
  Tick TotalFpFuBusy() const;
  Tick TotalLinkBusy() const;

  // Telemetry gauges (DESIGN.md §17): instantaneous vault-bank backlog
  // across the network, and the full-duplex link population (every cube's
  // host links plus the inter-cube hop links) that normalizes the link-
  // occupancy gauge.
  std::uint32_t BusyBanksAt(Tick now) const;
  Tick MaxBankReady() const;
  std::uint32_t TotalLinkCount() const;

 private:
  // Applies the request-direction hop path toward `cube`: per-hop TX-lane
  // serialization plus SerDes + pass-through crossbar latency. Returns the
  // arrival tick at the home cube's own link interface.
  Tick HopsOut(std::uint32_t cube, std::uint32_t flits, Tick when,
               trace::SpanRef span);

  // Response-direction path back to the host (RX lanes).
  Tick HopsBack(std::uint32_t cube, std::uint32_t flits, Tick when,
                trace::SpanRef span);

  // Hop-link index of pass-through hop `h` (0-based from the host) on the
  // path to `cube`.
  std::uint32_t HopEdge(std::uint32_t cube, std::uint32_t h) const;

  // Sets the counters that describe the network's size (multi-cube only).
  void SetSizeCounters();

  HmcParams params_;
  CubeMap map_;
  trace::SpanRecorder* spans_ = nullptr;  // may be null (tracing off)
  StatScope stats_;  // "hmc." network counters (multi-cube only)
  StatId sid_local_ops_;
  StatId sid_remote_ops_;
  StatId sid_hop_traversals_;
  StatId sid_hop_flits_;
  StatId sid_hop_ns_;
  StatId sid_cubes_;
  StatId sid_capacity_gib_;
  std::vector<std::unique_ptr<HmcCube>> cubes_;
  std::vector<Link> hop_links_;  // one full-duplex link per inter-cube edge
};

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_TOPOLOGY_H_
