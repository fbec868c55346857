// Machine configuration for a simulation run (Table IV + Section IV-B).
#ifndef GRAPHPIM_CORE_SIM_CONFIG_H_
#define GRAPHPIM_CORE_SIM_CONFIG_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "cpu/core.h"
#include "energy/energy.h"
#include "hmc/config.h"
#include "mem/hierarchy.h"
#include "pmem/pmem.h"
#include "workloads/params.h"

namespace graphpim {
class Config;
}

namespace graphpim::core {

// The evaluated machine configurations (Section IV-B).
enum class Mode {
  kBaseline = 0,     // conventional: HMC as plain main memory
  kUPei = 1,         // idealized PEI [14]: locality-aware, free coherence
  kGraphPim = 2,     // this paper: PMR atomics offloaded, cache bypass
  kUncacheNoPim = 3, // ablation: UC property without PIM-atomics (bus lock)
};

const char* ToString(Mode m);

struct SimConfig {
  Mode mode = Mode::kGraphPim;
  int num_cores = 16;
  cpu::CoreParams core;
  mem::CacheParams cache;
  hmc::HmcParams hmc;
  energy::EnergyParams energy;

  // Quantum for loosely-synchronized multi-core advancement.
  Tick quantum = NsToTicks(5.0);

  // Extra host penalty for the bus-lock fallback (kUncacheNoPim), cycles.
  int bus_lock_penalty = 100;

  // Outstanding uncacheable/offloaded requests a core may hold (UC/WC
  // buffer entries); bounds the rate at which PIM commands enter the HMC.
  int uc_queue_depth = 16;

  // Hybrid HMC+DRAM systems (Section III-B discussion): the fraction of
  // property pages resident in the HMC. Pages outside it live in
  // conventional DRAM and are processed the conventional way (cacheable,
  // host atomics); pages inside keep the full PIM benefit.
  double pmr_hmc_fraction = 1.0;

  // Transaction flight recorder (DESIGN.md §12): fraction of memory
  // requests sampled into per-stage span chains. 0 disables tracing
  // entirely (no recorder is built; goldens stay byte-identical).
  double trace_sample_rate = 0.0;

  // Upper bound on recorded spans per run (memory safety valve); 0 means
  // unbounded.
  std::uint64_t trace_max_spans = 1u << 20;

  // Virtual-time telemetry (DESIGN.md §17): window width in simulated
  // nanoseconds for the windowed counter/gauge timeline. 0 disables
  // telemetry entirely (no sampler is built; goldens stay byte-identical).
  // Positive values must be >= 1 ns (cross-checked in Validate).
  double telemetry_window_ns = 0.0;

  // Upper bound on recorded telemetry windows per run (memory safety
  // valve, same role as trace_max_spans); 0 means unbounded.
  std::uint64_t telemetry_max_windows = 1u << 16;

  // Persistent PMR (DESIGN.md §14): pmem.enable turns the PMR into
  // PMEM-backed memory with flush/fence persist costs and the
  // crash/recovery harness; off by default (strict passthrough).
  pmem::PmemParams pmem;

  // ANN / HNSW workload knobs (DESIGN.md §16): the `ann.*` field-table
  // rows. Only the hnsw workload and the serve engine's knn query kind
  // read them, so the defaults are a strict passthrough for every other
  // trace.
  workloads::AnnParams ann;

  // Returns Table IV's full-size machine.
  static SimConfig Paper(Mode mode);

  // Returns the scaled machine used by default benches: private/shared
  // caches shrunk 16x so that CI-scale graphs (tens of thousands of
  // vertices) exercise the same footprint:capacity ratios as LDBC-1M
  // against Table IV (see DESIGN.md "Datasets").
  static SimConfig Scaled(Mode mode);

  // THE single config-parsing path (DESIGN.md §11): builds the machine for
  // `mode` from a key-value Config. Starts from Paper/Scaled per the
  // "full" key, applies every machine knob in the shared field table
  // (threads, fp, fus, linkbw, hybrid, uc_depth, num_cubes, cube_page_bytes,
  // topology, and the fault knobs — each accepted in both underscore and
  // dashed spellings), then Validate()s. Drivers must not read SimConfig
  // fields out of a Config anywhere else; unknown keys are the caller's
  // RequireKeys problem, out-of-range values throw SimError naming the key.
  static SimConfig FromConfig(const graphpim::Config& cfg, Mode mode);

  // Every key FromConfig accepts, both spellings where they differ (for
  // drivers' RequireKeys lists — keeps CLI surfaces in sync with the table
  // by construction).
  static std::vector<std::string> ConfigKeys();

  // Rejects invalid machines with a SimError naming the offending config
  // key: non-positive num_cores, pmr_hmc_fraction outside [0, 1],
  // num_cubes < 1, capacity/interleave mismatches, out-of-range fault
  // knobs, and vault, bank, row or L3-bank counts that are not powers of
  // two. Called by FromConfig and by the Machine constructor (so by
  // RunSimulation too), so programmatically built configs get the same
  // gate as parsed ones.
  void Validate() const;

  // Human-readable machine line. The tunable-knob section is generated
  // from the same field table FromConfig parses, so a knob added there
  // shows up here automatically (the two can never drift again).
  std::string Describe() const;
};

}  // namespace graphpim::core

#endif  // GRAPHPIM_CORE_SIM_CONFIG_H_
