// Aggregated results of one simulation run.
#ifndef GRAPHPIM_CORE_RESULTS_H_
#define GRAPHPIM_CORE_RESULTS_H_

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "energy/energy.h"

namespace graphpim::core {

struct SimResults {
  std::string mode;

  // Timing. Summarize derives cycles and seconds from end_tick, the tick
  // at which the last core finished; reports do not print it.
  Tick end_tick = 0;
  std::uint64_t cycles = 0;       // longest core's cycle count
  std::uint64_t insts = 0;        // total retired micro-ops
  double seconds = 0.0;           // simulated wall clock
  double ipc = 0.0;               // per-core average IPC

  // Cache behavior.
  double l1_mpki = 0.0;
  double l2_mpki = 0.0;
  double l3_mpki = 0.0;
  double atomic_miss_rate = 0.0;  // offloading candidates missing all levels

  // Atomics.
  std::uint64_t atomics = 0;
  std::uint64_t offloaded_atomics = 0;

  // Link traffic (Fig 12).
  double req_flits = 0.0;
  double resp_flits = 0.0;

  // Fault injection & degraded modes (src/fault, DESIGN.md §9). All zero
  // on a fault-free run.
  std::uint64_t link_crc_errors = 0;  // corrupted packets detected at RX
  std::uint64_t link_retries = 0;     // retry-buffer replays
  double retry_flits = 0.0;           // FLITs retransmitted by replays
  std::uint64_t poisoned_ops = 0;     // responses delivered poisoned
  std::uint64_t vault_stalls = 0;     // injected vault busy-stalls

  // Execution-time attribution, fractions of total core time (Fig 9).
  double frac_atomic_incore = 0.0;
  double frac_atomic_incache = 0.0;
  double frac_atomic_dep = 0.0;
  double frac_other = 0.0;

  // Top-down style breakdown (Fig 2).
  double frac_frontend = 0.0;
  double frac_badspec = 0.0;
  double frac_retiring = 0.0;
  double frac_backend = 0.0;

  // Uncore energy (Fig 15).
  energy::EnergyBreakdown energy;

  // Host-side footprint of the replayed tiled micro-op trace (the sum of
  // every stream's TraceTile arenas). A plain field rather than a registry
  // counter on purpose: the counter surface is pinned by the golden JSON
  // files, while this is a property of the simulator process, not of the
  // simulated machine. Zero when the results were not produced by a trace
  // replay.
  std::uint64_t trace_peak_bytes = 0;

  // The run's counter registry: every component's counters, and the
  // "core." totals all cores counted into. Summarize derives the fields
  // above (all but trace_peak_bytes) from it and end_tick. The
  // compatibility raw.Items() view (JSON "counters") hides the "core."
  // scope; raw.AllItems() exposes everything.
  StatRegistry raw;
};

}  // namespace graphpim::core

#endif  // GRAPHPIM_CORE_RESULTS_H_
