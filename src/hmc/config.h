// Configuration of the HMC model (paper Table IV and HMC 2.0 spec values).
#ifndef GRAPHPIM_HMC_CONFIG_H_
#define GRAPHPIM_HMC_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "fault/fault.h"

namespace graphpim::hmc {

// Link topology of a multi-cube network (HMC 2.0 chaining, Section III-B
// hybrid discussion): `kChain` daisy-chains the cubes off the host's links
// (cube i is i pass-through hops away), `kStar` hangs every remote cube one
// hop behind cube 0 acting as the hub.
enum class CubeTopology { kChain = 0, kStar = 1 };

const char* ToString(CubeTopology t);

// Parses "chain" / "star"; throws SimError on anything else.
CubeTopology ParseCubeTopology(const std::string& name);

struct HmcParams {
  // Geometry: 8GB cube, 32 vaults, 512 DRAM banks total (16 per vault).
  // The vault and bank counts and the row size are powers of two.
  std::uint64_t capacity_bytes = 8 * kGiB;
  std::uint32_t num_vaults = 32;
  std::uint32_t banks_per_vault = 16;
  std::uint32_t row_bytes = 256;  // open-row (page) granularity per bank

  // DRAM timing (Table IV, from [31]).
  Tick t_cl = NsToTicks(13.75);
  Tick t_rcd = NsToTicks(13.75);
  Tick t_rp = NsToTicks(13.75);
  Tick t_ras = NsToTicks(27.5);
  Tick t_burst = NsToTicks(2.0);  // 64B transfer from the bank through TSVs
  Tick t_wr = NsToTicks(7.5);     // write recovery before precharge

  // Vault controller processing overhead per request.
  Tick ctrl_overhead = NsToTicks(1.0);

  // Row-buffer management: open-page keeps the row active after an access
  // (default; rewards locality), closed-page auto-precharges (uniform
  // latency, no conflict penalty).
  bool closed_page = false;

  // Periodic refresh: every t_refi, a bank is unavailable for t_rfc.
  // 0 disables refresh.
  Tick t_refi = NsToTicks(7800.0);
  Tick t_rfc = NsToTicks(160.0);

  // Links: 4 links per package, 120 GB/s per link (Table IV), full duplex.
  std::uint32_t num_links = 4;
  double link_gbps = 120.0;
  double link_bw_scale = 1.0;      // Fig 13 sweep knob
  Tick link_latency = NsToTicks(3.2);  // SerDes + propagation, each way
  Tick xbar_latency = NsToTicks(1.0);  // logic-layer crossbar hop

  // PIM functional units (Section IV-B1: default 16 integer FUs and one
  // low-power floating-point FU per vault).
  std::uint32_t fus_per_vault = 16;
  std::uint32_t fp_fus_per_vault = 1;
  Tick fu_int_latency = NsToTicks(1.0);
  Tick fu_fp_latency = NsToTicks(4.0);

  // Section III-C extension: allow FP add/sub atomics.
  bool enable_fp_atomics = true;

  // Multi-cube network (src/hmc/topology.h). One HmcParams describes every
  // cube of the package network; `num_cubes == 1` degenerates to the
  // single-cube model of the paper, bit-identical to the pre-network code.
  // PMR pages interleave across cubes at `cube_page_bytes` granularity
  // (must match graph::AddressSpace::kPmrPageBytes for the sharding the
  // framework's pmr_malloc carving assumes); remote cubes pay pass-through
  // SerDes + crossbar hops with per-hop link bandwidth accounting.
  std::uint32_t num_cubes = 1;
  CubeTopology cube_topology = CubeTopology::kChain;
  std::uint64_t cube_page_bytes = 4096;

  // Fault injection (DESIGN.md §9): link CRC errors recovered by the
  // retry path, vault busy-stalls, poisoned atomic responses. All knobs
  // default to zero — an ideal cube, bit-identical to the fault-free model.
  fault::FaultParams fault;

  // Derived helpers -------------------------------------------------------

  // Time to serialize one FLIT on a link (one direction).
  Tick FlitTime() const {
    double bytes_per_ns = link_gbps * link_bw_scale;  // GB/s == bytes/ns
    return static_cast<Tick>(16.0 / bytes_per_ns * kTicksPerNs + 0.5);
  }
};

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_CONFIG_H_
