#include "core/runner.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.h"

namespace graphpim::core {

namespace {

// A counter that holds an event count. Counts are exact integers below
// 2^53; the clamp only matters for a registry rebuilt from a damaged
// journal, where a negative or huge value must not overflow the cast.
std::uint64_t Count(const StatRegistry& s, const char* name) {
  const double v = s.Get(name);
  return v > 0.0 && v < 0x1p64 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace

SimResults Summarize(const SimConfig& cfg, StatRegistry raw, Tick end_tick) {
  SimResults r;
  r.mode = ToString(cfg.mode);
  r.end_tick = end_tick;
  const StatRegistry& s = raw;
  const double cycle_ticks = 1000.0 / cfg.core.freq_ghz;
  r.cycles = static_cast<std::uint64_t>(static_cast<double>(end_tick) / cycle_ticks);
  r.insts = Count(s, "core.insts");
  r.seconds = TicksToNs(end_tick) * 1e-9;
  if (r.cycles > 0) {
    r.ipc = static_cast<double>(r.insts) /
            (static_cast<double>(r.cycles) * cfg.num_cores);
  }

  double ki = static_cast<double>(r.insts) / 1000.0;
  if (ki > 0) {
    r.l1_mpki = s.Get("cache.l1_misses") / ki;
    r.l2_mpki = s.Get("cache.l2_misses") / ki;
    r.l3_mpki = s.Get("cache.l3_misses") / ki;
  }
  double atomic_reqs = s.Get("cache.atomic_reqs");
  if (atomic_reqs > 0) {
    r.atomic_miss_rate = s.Get("cache.atomic_mem_misses") / atomic_reqs;
  }
  r.atomics = Count(s, "core.atomics");
  r.offloaded_atomics = Count(s, "core.offloaded_atomics");
  r.req_flits = s.Get("hmc.req_flits");
  r.resp_flits = s.Get("hmc.resp_flits");
  r.link_crc_errors = Count(s, "fault.link_crc_errors");
  r.link_retries = Count(s, "fault.link_retries");
  r.retry_flits = s.Get("fault.retry_flits");
  r.poisoned_ops = Count(s, "fault.poisoned_ops");
  r.vault_stalls = Count(s, "fault.vault_stalls");

  // Attribution fractions over aggregate core time.
  double total_core_ticks =
      static_cast<double>(end_tick) * static_cast<double>(cfg.num_cores);
  if (total_core_ticks > 0) {
    r.frac_atomic_incore = s.Get("core.atomic_incore_ticks") / total_core_ticks;
    r.frac_atomic_incache = s.Get("core.atomic_incache_ticks") / total_core_ticks;
    r.frac_atomic_dep = s.Get("core.atomic_dep_ticks") / total_core_ticks;
    r.frac_other = std::max(
        0.0, 1.0 - r.frac_atomic_incore - r.frac_atomic_incache - r.frac_atomic_dep);

    r.frac_retiring = static_cast<double>(r.insts) * cycle_ticks /
                      (cfg.core.issue_width * total_core_ticks);
    r.frac_frontend = s.Get("core.frontend_ticks") / total_core_ticks;
    r.frac_badspec = s.Get("core.badspec_ticks") / total_core_ticks;
    r.frac_backend = std::max(
        0.0, 1.0 - r.frac_retiring - r.frac_frontend - r.frac_badspec);
  }

  energy::EnergyParams ep = cfg.energy;
  // Static uncore power scales with the whole cube network: every cube
  // burns its vaults' and SerDes links' idle power whether or not traffic
  // reaches it.
  ep.num_vaults =
      static_cast<int>(cfg.hmc.num_vaults * cfg.hmc.num_cubes);
  ep.num_cubes = static_cast<int>(cfg.hmc.num_cubes);
  ep.fp_fus_enabled = cfg.hmc.enable_fp_atomics;
  r.energy = energy::ComputeUncoreEnergy(s, r.seconds, ep);

  r.raw = std::move(raw);
  return r;
}

SimResults RunSimulation(const workloads::Trace& trace, const SimConfig& cfg,
                         Addr pmr_base, Addr pmr_end, const RunOptions& opts) {
  Machine machine(cfg, pmr_base, pmr_end);
  const Tick end_tick = machine.Replay(trace, opts);
  // The machine replays no more; its registry moves into the results.
  SimResults r = Summarize(cfg, std::move(machine).TakeStats(), end_tick);
  r.trace_peak_bytes = trace.BytesUsed();
  return r;
}

double Speedup(const SimResults& base, const SimResults& other) {
  GP_CHECK(other.cycles > 0);
  return static_cast<double>(base.cycles) / static_cast<double>(other.cycles);
}

// The generated edge list is a temporary of the graph_ initializer, so it
// is freed before the trace is generated instead of staying live under it;
// at a million vertices it is the largest allocation of the run.
Experiment::Experiment(const std::string& profile, VertexId num_vertices,
                       const std::string& workload_name, const Options& opts)
    : space_(std::make_unique<graph::AddressSpace>()),
      graph_(std::make_unique<graph::CsrGraph>(
          graph::GenerateProfile(profile, num_vertices, opts.seed), *space_)) {
  GenerateTrace(workload_name, opts);
}

Experiment::Experiment(const graph::EdgeList& el, const std::string& workload_name,
                       const Options& opts)
    : space_(std::make_unique<graph::AddressSpace>()),
      graph_(std::make_unique<graph::CsrGraph>(el, *space_)) {
  GenerateTrace(workload_name, opts);
}

void Experiment::GenerateTrace(const std::string& workload_name, const Options& opts) {
  workload_ = workloads::CreateWorkload(workload_name, opts.params);
  workload_->SetPersistMode(opts.persist);
  workloads::TraceBuilder tb(opts.num_threads, space_.get(),
                             /*mispredict_rate=*/0.06, opts.seed);
  if (opts.op_cap != 0) tb.SetOpCap(opts.op_cap);
  workload_->Generate(*graph_, *space_, tb);
  trace_ = tb.Take();
}

SimResults Experiment::Run(const SimConfig& cfg, const RunOptions& opts) const {
  return RunSimulation(trace_, cfg, space_->pmr_base(), space_->pmr_end(), opts);
}

}  // namespace graphpim::core
